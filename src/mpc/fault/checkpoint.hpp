// Versioned binary snapshots of MPC simulator state.
//
// A Checkpoint captures everything needed to restore a run to a superstep
// barrier: the metrics ledger, in-flight messages, per-machine counters and
// RNG cursors, and — via Snapshotable hooks registered by the algorithm
// driver — the per-machine algorithm state slices (activity bitsets, result
// accumulators, priority arrays, ...). The encoding is a little-endian
// byte stream behind a magic/version header, so checkpoints can be held in
// memory for crash recovery, written to disk, and validated on decode.
//
// Snapshotable hooks run on the simulator's calling thread at superstep
// barriers only (never concurrently with round callbacks), so they may read
// any driver state without synchronization.
#pragma once

#include <concepts>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

namespace rsets::mpc {

class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what)
      : std::runtime_error(what) {}
};

// --- byte-stream primitives ------------------------------------------------

class SnapshotWriter {
 public:
  explicit SnapshotWriter(std::vector<std::uint8_t>& out) : out_(&out) {}

  void u64(std::uint64_t value) {
    const std::size_t at = out_->size();
    out_->resize(at + sizeof(value));
    std::memcpy(out_->data() + at, &value, sizeof(value));
  }

  void bytes(const void* data, std::size_t size) {
    const std::size_t at = out_->size();
    out_->resize(at + size);
    if (size != 0) std::memcpy(out_->data() + at, data, size);
  }

  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }

  // Length-prefixed vector of trivially copyable elements.
  template <typename T>
  void vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(v.size());
    bytes(v.data(), v.size() * sizeof(T));
  }

  // std::vector<bool> is bit-packed; serialize one byte per element (these
  // vectors are n-bit activity masks — small next to adjacency payloads).
  void vec(const std::vector<bool>& v) {
    u64(v.size());
    for (const bool b : v) {
      const std::uint8_t byte = b ? 1 : 0;
      bytes(&byte, 1);
    }
  }

  // field() overloads so FieldsSnapshot can fold over mixed members.
  template <std::unsigned_integral T>
  void field(const T& v) {
    u64(v);
  }
  template <typename T>
  void field(const std::vector<T>& v) {
    vec(v);
  }

 private:
  std::vector<std::uint8_t>* out_;
};

class SnapshotReader {
 public:
  SnapshotReader(const std::uint8_t* data, std::size_t size)
      : data_(data), size_(size) {}

  std::uint64_t u64() {
    std::uint64_t value = 0;
    bytes(&value, sizeof(value));
    return value;
  }

  void bytes(void* out, std::size_t size) {
    if (size > size_ - at_) {
      throw CheckpointError("checkpoint truncated: read past end");
    }
    if (size != 0) std::memcpy(out, data_ + at_, size);
    at_ += size;
  }

  std::string str() {
    std::string s(checked_count(u64(), 1), '\0');
    bytes(s.data(), s.size());
    return s;
  }

  template <typename T>
  void vec(std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    v.resize(checked_count(u64(), sizeof(T)));
    bytes(v.data(), v.size() * sizeof(T));
  }

  void vec(std::vector<bool>& v) {
    const std::size_t n = checked_count(u64(), 1);
    v.assign(n, false);
    for (std::size_t i = 0; i < n; ++i) {
      std::uint8_t byte = 0;
      bytes(&byte, 1);
      v[i] = byte != 0;
    }
  }

  template <std::unsigned_integral T>
  void field(T& v) {
    v = static_cast<T>(u64());
  }
  template <typename T>
  void field(std::vector<T>& v) {
    vec(v);
  }

  std::size_t remaining() const { return size_ - at_; }

 private:
  // Rejects length prefixes that cannot fit in the remaining bytes before
  // any allocation happens (corrupt-input hardening).
  std::size_t checked_count(std::uint64_t count, std::size_t elem_size) {
    if (count > (size_ - at_) / elem_size) {
      throw CheckpointError("checkpoint corrupt: impossible length prefix");
    }
    return static_cast<std::size_t>(count);
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t at_ = 0;
};

// --- driver hooks ----------------------------------------------------------

class Snapshotable {
 public:
  virtual ~Snapshotable() = default;
  virtual void save(SnapshotWriter& w) const = 0;
  virtual void restore(SnapshotReader& r) = 0;
};

// Serializes a fixed list of driver members (counters and vectors) by
// reference — the one-liner algorithm drivers use to register their state:
//
//   auto snap = mpc::snapshot_of(result.ruling_set, result.phases, priority);
//   sim.register_snapshotable("det_ruling", &snap);
template <typename... Fields>
class FieldsSnapshot final : public Snapshotable {
 public:
  explicit FieldsSnapshot(Fields&... fields) : fields_(&fields...) {}

  void save(SnapshotWriter& w) const override {
    std::apply([&w](auto*... f) { (w.field(*f), ...); }, fields_);
  }

  void restore(SnapshotReader& r) override {
    std::apply([&r](auto*... f) { (r.field(*f), ...); }, fields_);
  }

 private:
  std::tuple<Fields*...> fields_;
};

template <typename... Fields>
FieldsSnapshot<Fields...> snapshot_of(Fields&... fields) {
  return FieldsSnapshot<Fields...>(fields...);
}

// --- the checkpoint object -------------------------------------------------

struct Checkpoint {
  // Value of MpcMetrics::rounds at the barrier this snapshot captures.
  std::uint64_t round = 0;
  // Encoded state (see simulator.cpp for the section layout). Starts with
  // the magic/version header below.
  std::vector<std::uint8_t> bytes;

  bool empty() const { return bytes.empty(); }
};

inline constexpr std::uint64_t kCheckpointMagic = 0x3130544B43535253ull;  // "RSCKPT01"
// v2: metrics ledger gains degraded_subrounds/deadline_misses/
// speculative_rounds, per-machine section gains the deadline-miss streak.
// v3: metrics ledger gains corrupt_detected/integrity_retries/
// quarantined_rounds, per-machine section gains the corruption streak, and
// the image ends with a whole-image FNV-1a digest (see seal_checkpoint) so
// bit rot in a durable checkpoint is detected at read time instead of
// surfacing as a silently wrong restore.
// v4: the in-flight section serializes aggregated transport buffers —
// (src, dst, messages, arena) per buffer, framing validated on decode —
// instead of per-message (src, dst, tag, payload) records.
inline constexpr std::uint64_t kCheckpointVersion = 4;

// Appends the 64-bit FNV-1a digest of `bytes` to `bytes` itself — the last
// encoding step of every v3 image. The digest covers everything before it,
// including the magic/version header.
void seal_checkpoint(std::vector<std::uint8_t>& bytes);

// Recomputes and checks the trailing digest; throws CheckpointError naming
// `context` on a mismatch or an image too short to carry one. Called both
// when a file is read back (catching on-disk rot, enabling the .prev
// fallback) and before an in-memory restore decodes anything.
void verify_checkpoint_image(const std::vector<std::uint8_t>& bytes,
                             const std::string& context);

// Atomically publishes a sealed image at `path`: the bytes go to
// `path.tmp`, are fsync'd, and rename(2) over `path`, rotating any prior
// image to `path.prev` — a crash mid-write can never leave a torn file.
// Throws CheckpointError on any I/O failure (the temp file is removed).
// Checkpoints and service journals both publish through this.
void write_sealed_file(const std::vector<std::uint8_t>& bytes,
                       const std::string& path);

// Disk round trip (binary, exactly Checkpoint::bytes). Throws
// CheckpointError on I/O failure or a bad header.
//
// Writes go through write_sealed_file. Reads fall back to `path.prev` when
// `path` fails to decode, so one corrupt generation costs one checkpoint
// interval, not the run.
void write_checkpoint_file(const Checkpoint& checkpoint,
                           const std::string& path);
Checkpoint read_checkpoint_file(const std::string& path);

}  // namespace rsets::mpc
