#include "mpc/fault/checkpoint.hpp"

#include <fstream>

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "util/fnv.hpp"

namespace rsets::mpc {
namespace {

// Reads and header-validates one file. Decode failures (bad magic, wrong
// version, truncation) throw CheckpointError; the caller decides whether a
// fallback exists.
Checkpoint read_one_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw CheckpointError("read_checkpoint_file: cannot open " + path);
  }
  Checkpoint checkpoint;
  checkpoint.bytes.assign(std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>());
  // Validate the header and recover the barrier round without decoding the
  // full state (that needs the simulator's registered hooks).
  SnapshotReader r(checkpoint.bytes.data(), checkpoint.bytes.size());
  if (r.u64() != kCheckpointMagic) {
    throw CheckpointError("read_checkpoint_file: bad magic in " + path);
  }
  if (r.u64() != kCheckpointVersion) {
    throw CheckpointError("read_checkpoint_file: unsupported version in " +
                          path);
  }
  // A torn or bit-rotted image fails here rather than at restore time, so
  // the caller's .prev fallback can still save the run.
  verify_checkpoint_image(checkpoint.bytes, "read_checkpoint_file: " + path);
  checkpoint.round = r.u64();
  return checkpoint;
}

}  // namespace

void seal_checkpoint(std::vector<std::uint8_t>& bytes) {
  const std::uint64_t digest = fnv1a_bytes(bytes.data(), bytes.size());
  SnapshotWriter w(bytes);
  w.u64(digest);
}

void verify_checkpoint_image(const std::vector<std::uint8_t>& bytes,
                             const std::string& context) {
  if (bytes.size() < sizeof(std::uint64_t)) {
    throw CheckpointError(context + ": image too short for a checksum");
  }
  const std::size_t body = bytes.size() - sizeof(std::uint64_t);
  std::uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + body, sizeof(stored));
  if (fnv1a_bytes(bytes.data(), body) != stored) {
    throw CheckpointError(context + ": whole-image checksum mismatch");
  }
}

void write_sealed_file(const std::vector<std::uint8_t>& bytes,
                       const std::string& path) {
  // Atomic publish: the bytes land in a sibling temp file, reach the disk via
  // fsync, and only then replace `path` with rename(2) — so a crash at any
  // point leaves either the old complete image or the new complete one,
  // never a torn file.
  const std::string tmp = path + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw CheckpointError("write_sealed_file: cannot open " + tmp);
  }
  const std::uint8_t* data = bytes.data();
  std::size_t left = bytes.size();
  while (left > 0) {
    const ssize_t n = ::write(fd, data, left);
    if (n <= 0) {
      ::close(fd);
      std::remove(tmp.c_str());
      throw CheckpointError("write_sealed_file: short write to " + tmp);
    }
    data += n;
    left -= static_cast<std::size_t>(n);
  }
  const bool synced = ::fsync(fd) == 0;
  const bool closed = ::close(fd) == 0;
  if (!synced || !closed) {
    std::remove(tmp.c_str());
    throw CheckpointError("write_sealed_file: cannot sync " + tmp);
  }
  // Keep the image being replaced as `.prev`, the fallback readers use when
  // the primary fails to decode. Best-effort: on the first write there is
  // nothing to rotate.
  std::rename(path.c_str(), (path + ".prev").c_str());
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw CheckpointError("write_sealed_file: cannot publish " + path);
  }
}

void write_checkpoint_file(const Checkpoint& checkpoint,
                           const std::string& path) {
  if (checkpoint.empty()) {
    throw CheckpointError("write_checkpoint_file: empty checkpoint");
  }
  write_sealed_file(checkpoint.bytes, path);
}

Checkpoint read_checkpoint_file(const std::string& path) {
  try {
    return read_one_checkpoint(path);
  } catch (const CheckpointError& primary) {
    // Reject-and-fall-back: a corrupt or unreadable primary is not fatal if
    // the previous generation (rotated aside by write_checkpoint_file) still
    // decodes — recovery just restarts from one checkpoint earlier. When no
    // usable fallback exists, surface the original failure.
    try {
      return read_one_checkpoint(path + ".prev");
    } catch (const CheckpointError&) {
      throw CheckpointError(std::string(primary.what()) +
                            " (no usable .prev fallback)");
    }
  }
}

}  // namespace rsets::mpc
