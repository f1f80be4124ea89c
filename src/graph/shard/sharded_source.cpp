#include "graph/shard/sharded_source.hpp"

#include <cstdio>
#include <cstdlib>
#include <utility>
#include <vector>

#include "util/error.hpp"

namespace rsets::shard {
namespace {

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t end = s.find(sep, start);
    if (end == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, end - start));
    start = end + 1;
  }
  return out;
}

// A malformed --sharded spec is a usage error like any other bad flag
// value: reject it with the structured taxonomy and the 1-based token
// position, mirroring parse_fault_spec and io.cpp line numbers.
[[noreturn]] void bad_token(std::size_t index, const std::string& token,
                            const std::string& why) {
  throw Error(ErrorCode::kBadFlag,
              "sharded spec token " + std::to_string(index) + " ('" + token +
                  "'): " + why);
}

[[noreturn]] void bad_spec(const std::string& why) {
  throw Error(ErrorCode::kBadFlag, "sharded spec: " + why);
}

std::uint64_t parse_u64(const std::string& s, std::size_t index,
                        const std::string& token) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (s.empty() || end != s.c_str() + s.size()) {
    bad_token(index, token, "'" + s + "' is not a number");
  }
  return v;
}

double parse_fraction(const std::string& s, std::size_t index,
                      const std::string& token) {
  char* end = nullptr;
  const double p = std::strtod(s.c_str(), &end);
  if (s.empty() || end != s.c_str() + s.size() || p < 0.0 || p > 1.0) {
    bad_token(index, token, "'" + s + "' is not a fraction in [0, 1]");
  }
  return p;
}

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

const char* shard_family_name(ShardFamily family) {
  switch (family) {
    case ShardFamily::kGraph500:
      return "graph500";
    case ShardFamily::kRmat:
      return "rmat";
    case ShardFamily::kGeometric3d:
      return "geometric3d";
  }
  return "?";
}

VertexId ShardSpec::num_vertices() const {
  if (family == ShardFamily::kGeometric3d) {
    return static_cast<VertexId>(n);
  }
  return static_cast<VertexId>(std::uint64_t{1} << scale);
}

std::string ShardSpec::to_string() const {
  std::string out = shard_family_name(family);
  out += ':';
  switch (family) {
    case ShardFamily::kGraph500:
      out += "scale=" + std::to_string(scale) +
             ",edgefactor=" + std::to_string(edgefactor);
      break;
    case ShardFamily::kRmat:
      out += "scale=" + std::to_string(scale) +
             ",edgefactor=" + std::to_string(edgefactor) +
             ",a=" + format_double(a) + ",b=" + format_double(b) +
             ",c=" + format_double(c);
      break;
    case ShardFamily::kGeometric3d:
      out += "n=" + std::to_string(n) + ",radius=" + format_double(radius);
      break;
  }
  out += ",seed=" + std::to_string(seed);
  return out;
}

ShardSpec parse_shard_spec(const std::string& text,
                           std::uint64_t default_seed) {
  if (text.empty()) bad_spec("empty (want FAMILY:key=value,...)");
  const std::size_t colon = text.find(':');
  const std::string family =
      colon == std::string::npos ? text : text.substr(0, colon);

  ShardSpec spec;
  spec.seed = default_seed;
  if (family == "graph500") {
    spec.family = ShardFamily::kGraph500;
    // Graph500 reference corner weights; fixed for this family.
    spec.a = 0.57;
    spec.b = 0.19;
    spec.c = 0.19;
  } else if (family == "rmat") {
    spec.family = ShardFamily::kRmat;
  } else if (family == "geometric3d") {
    spec.family = ShardFamily::kGeometric3d;
    spec.n = 0;
    spec.radius = 0.0;
  } else {
    bad_spec("unknown family '" + family +
             "' (want graph500|rmat|geometric3d)");
  }

  const std::string params =
      colon == std::string::npos ? "" : text.substr(colon + 1);
  const std::vector<std::string> tokens =
      params.empty() ? std::vector<std::string>{} : split(params, ',');
  bool have_n = false;
  bool have_radius = false;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    const std::size_t pos = i + 1;  // 1-based, like io.cpp line numbers
    if (token.empty()) continue;
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos) {
      bad_token(pos, token, "want key=value");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    const bool kronecker = spec.family != ShardFamily::kGeometric3d;
    if (key == "seed") {
      spec.seed = parse_u64(value, pos, token);
    } else if (kronecker && key == "scale") {
      const std::uint64_t scale = parse_u64(value, pos, token);
      if (scale < 1 || scale > 31) {
        bad_token(pos, token, "scale must be in [1, 31]");
      }
      spec.scale = static_cast<std::uint32_t>(scale);
    } else if (kronecker && key == "edgefactor") {
      const std::uint64_t ef = parse_u64(value, pos, token);
      if (ef < 1 || ef > (std::uint64_t{1} << 20)) {
        bad_token(pos, token, "edgefactor must be in [1, 2^20]");
      }
      spec.edgefactor = static_cast<std::uint32_t>(ef);
    } else if (spec.family == ShardFamily::kRmat &&
               (key == "a" || key == "b" || key == "c")) {
      const double p = parse_fraction(value, pos, token);
      (key == "a" ? spec.a : key == "b" ? spec.b : spec.c) = p;
    } else if (spec.family == ShardFamily::kGeometric3d && key == "n") {
      const std::uint64_t n = parse_u64(value, pos, token);
      if (n < 1 || n > 0xFFFFFFFFull) {
        bad_token(pos, token, "n must be in [1, 2^32)");
      }
      spec.n = n;
      have_n = true;
    } else if (spec.family == ShardFamily::kGeometric3d && key == "radius") {
      char* end = nullptr;
      const double r = std::strtod(value.c_str(), &end);
      if (value.empty() || end != value.c_str() + value.size() || r <= 0.0 ||
          r > 1.0) {
        bad_token(pos, token, "radius must be in (0, 1]");
      }
      spec.radius = r;
      have_radius = true;
    } else {
      bad_token(pos, token,
                "unknown key '" + key + "' for family " + family);
    }
  }

  if (spec.family == ShardFamily::kRmat && spec.a + spec.b + spec.c > 1.0) {
    bad_spec("rmat corner weights a+b+c must be <= 1 (got " +
             format_double(spec.a + spec.b + spec.c) + ")");
  }
  if (spec.family == ShardFamily::kGeometric3d && (!have_n || !have_radius)) {
    bad_spec("geometric3d needs n=N and radius=R");
  }
  return spec;
}

std::vector<Edge> collect_shard(const ShardedSource& src, std::uint32_t s) {
  struct Collector final : EdgeSink {
    std::vector<Edge> edges;
    void consume(std::span<const Edge> batch) override {
      edges.insert(edges.end(), batch.begin(), batch.end());
    }
  };
  Collector sink;
  const std::uint32_t shards = src.num_shards();
  sink.edges.reserve((src.raw_edges() + shards - 1) / shards);
  src.stream_shard(s, sink);
  return std::move(sink.edges);
}

Graph materialize(const ShardSpec& spec) {
  const std::unique_ptr<ShardedSource> src = make_sharded_source(spec, 1);
  return Graph::from_edges(src->num_vertices(), collect_shard(*src, 0));
}

}  // namespace rsets::shard
