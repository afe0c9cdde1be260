// Shared helpers for the reproduction harnesses.
//
// Every bench binary prints (a) a header naming the paper artifact it
// regenerates, (b) an aligned ASCII table, and (c) a CSV block for plotting.
// Set MOBIWEB_FAST=1 to cut repetitions (quick smoke runs); default settings
// match the paper (50 repetitions x 200 documents).
// Some benches also accept --json[=PATH] (see json_request): a self-timed
// machine-readable run printing one JSON object to stdout (and PATH when
// given), following bench_micro_coding's convention. Each bench declares its
// flags through check_flags; anything else exits 2.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "util/table.hpp"

namespace mobiweb::bench {

inline bool fast_mode() {
  const char* v = std::getenv("MOBIWEB_FAST");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

// Paper-default repetition count, reduced under MOBIWEB_FAST.
inline int repetitions() { return fast_mode() ? 5 : 50; }
inline int documents_per_session() { return fast_mode() ? 50 : 200; }

inline void print_header(const std::string& artifact, const std::string& summary) {
  std::printf("================================================================\n");
  std::printf("%s\n", artifact.c_str());
  std::printf("%s\n", summary.c_str());
  if (fast_mode()) {
    std::printf("[MOBIWEB_FAST: reduced repetitions; expect noisier numbers]\n");
  }
  std::printf("================================================================\n");
}

inline void print_table(const std::string& caption, const TextTable& table) {
  std::printf("\n-- %s --\n%s", caption.c_str(), table.render().c_str());
  std::printf("csv:\n%s", table.render_csv().c_str());
}

// Scans argv for --NAME or --NAME=PATH (NAME without the dashes). Returns
// nullopt when absent, the (possibly empty) value when present. This is the
// one definition of the `--flag[=value]` convention every harness follows.
inline std::optional<std::string> flag_request(int argc, char** argv,
                                               const char* name) {
  const std::string bare = std::string("--") + name;
  const std::string prefix = bare + "=";
  for (int i = 1; i < argc; ++i) {
    if (bare == argv[i]) return std::string();
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return std::nullopt;
}

// Exits 2, printing the declared flags, unless every argument is --NAME or
// --NAME=VALUE for a NAME (without the dashes) in `declared`. Every harness
// calls it first, so a mistyped flag (--dutty=0.2) or a stray bare argument
// fails instead of silently running the default configuration.
inline void check_flags(int argc, char** argv,
                        std::initializer_list<const char*> declared) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const std::string_view name =
        arg.substr(0, 2) == "--" ? arg.substr(2, arg.find('=') - 2) : "";
    bool known = false;
    for (const char* d : declared) known = known || name == d;
    if (known) continue;
    std::fprintf(stderr, "bench: unknown argument '%s'; flags:", argv[i]);
    for (const char* d : declared) std::fprintf(stderr, " --%s", d);
    std::fprintf(stderr, "%s\n", declared.size() == 0 ? " (none)" : "");
    std::exit(2);
  }
}

// Scans argv for --json or --json=PATH. Returns nullopt when absent, the
// (possibly empty) output path when present.
inline std::optional<std::string> json_request(int argc, char** argv) {
  return flag_request(argc, argv, "json");
}

// Scans argv for --trace or --trace=PATH (Perfetto timeline output).
inline std::optional<std::string> trace_request(int argc, char** argv) {
  return flag_request(argc, argv, "trace");
}

// `text`, the value of --NAME, parsed as a double. A value that is not one
// number in full (empty, "abc", "0.1x") prints the flag and exits 2.
inline double parse_double_or_exit(const char* name, const std::string& text) {
  char* end = nullptr;
  const double parsed = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size()) {
    std::fprintf(stderr, "bench: --%s: not a number: '%s'\n", name, text.c_str());
    std::exit(2);
  }
  return parsed;
}

// --NAME=VALUE parsed as a double; `fallback` when absent.
inline double arg_double(int argc, char** argv, const char* name,
                         double fallback) {
  const auto v = flag_request(argc, argv, name);
  return v ? parse_double_or_exit(name, *v) : fallback;
}

// --NAME=V1,V2,... parsed as doubles; `fallback` when absent.
inline std::vector<double> arg_double_list(int argc, char** argv,
                                           const char* name,
                                           std::vector<double> fallback) {
  const auto v = flag_request(argc, argv, name);
  if (!v) return fallback;
  std::vector<double> out;
  std::size_t start = 0;
  for (;;) {
    const std::size_t comma = v->find(',', start);
    out.push_back(parse_double_or_exit(name, v->substr(start, comma - start)));
    if (comma == std::string::npos) return out;
    start = comma + 1;
  }
}

// Prints `json` to stdout and, when `path` is non-empty, to `path` as well.
// Returns the process exit code.
inline int emit_json(const std::string& json, const std::string& path) {
  if (!path.empty()) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot open %s\n", path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
  std::fputs(json.c_str(), stdout);
  return 0;
}

// Machine-readable run in the "mobiweb-bench/1" schema — the stable contract
// scripts/bench_diff.py consumes:
//
//   {"schema": "mobiweb-bench/1", "bench": NAME,
//    "meta": {string/number descriptors of the run configuration},
//    "metrics": {flat key -> number},
//    ...optional extra sections (raw())...}
//
// Metric keys gate perf regressions, so their direction is encoded in the
// suffix: *_mbps / *_per_hour / *_per_s / *completed / *content are
// higher-is-better; *_s / *_ms / *_us / *_ns / *frames / *timeouts /
// *attempts / *gave_up are lower-is-better; anything else is informational.
class JsonReport {
 public:
  explicit JsonReport(std::string bench_name) : bench_(std::move(bench_name)) {}

  void meta(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    quoted += obs::json_escape(value);
    quoted += '"';
    meta_.emplace_back(key, std::move(quoted));
  }
  void meta(const std::string& key, double value) {
    meta_.emplace_back(key, number(value));
  }
  void metric(const std::string& key, double value) {
    metrics_.emplace_back(key, number(value));
  }
  // Appends a pre-rendered JSON value as an extra top-level section (e.g. a
  // per-cell array or captured session traces). Caller owns its validity.
  void raw(const std::string& key, std::string json_value) {
    raw_.emplace_back(key, std::move(json_value));
  }

  [[nodiscard]] std::string str() const {
    std::string out = "{\n  \"schema\": \"mobiweb-bench/1\",\n  \"bench\": ";
    obs::append_json_string(out, bench_);
    out += ",\n  \"meta\": {";
    append_members(out, meta_);
    out += "},\n  \"metrics\": {";
    append_members(out, metrics_);
    out += "}";
    for (const auto& [key, value] : raw_) {
      out += ",\n  ";
      obs::append_json_string(out, key);
      out += ": " + value;
    }
    out += "\n}\n";
    return out;
  }

 private:
  static std::string number(double value) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    return buf;
  }
  static void append_members(
      std::string& out,
      const std::vector<std::pair<std::string, std::string>>& members) {
    bool first = true;
    for (const auto& [key, value] : members) {
      out += first ? "\n    " : ",\n    ";
      first = false;
      obs::append_json_string(out, key);
      out += ": " + value;
    }
    if (!first) out += "\n  ";
  }

  std::string bench_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::pair<std::string, std::string>> metrics_;
  std::vector<std::pair<std::string, std::string>> raw_;
};

// Compiler barrier for self-timed loops in harnesses that do not link
// google-benchmark.
template <typename T>
inline void keep_alive(T const& value) {
  asm volatile("" : : "g"(value) : "memory");
}

// Runs `op` repeatedly for ~budget_s of wall time and returns ops/second.
template <typename Fn>
inline double measure_ops_per_s(Fn&& op, double budget_s = 0.25) {
  using Clock = std::chrono::steady_clock;
  const auto budget = std::chrono::duration<double>(budget_s);
  const auto start = Clock::now();
  long ops = 0;
  do {
    op();
    ++ops;
  } while (Clock::now() - start < budget);
  const double secs =
      std::chrono::duration<double>(Clock::now() - start).count();
  return static_cast<double>(ops) / secs;
}

}  // namespace mobiweb::bench
