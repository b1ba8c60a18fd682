#include "harness/cli.h"

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>

#include "cc/registry.h"
#include "exec/thread_pool.h"

namespace gtpl::harness {
namespace {

template <typename T>
bool ParseNumber(const char* text, T* out) {
  if (text == nullptr || *text == '\0') return false;
  const char* end = text + std::strlen(text);
  T value{};
  const std::from_chars_result result = std::from_chars(text, end, value);
  if (result.ec != std::errc() || result.ptr != end) return false;
  *out = value;
  return true;
}

}  // namespace

bool ParseInt32Value(const char* text, int32_t* out) {
  return ParseNumber(text, out);
}

bool ParseInt64Value(const char* text, int64_t* out) {
  return ParseNumber(text, out);
}

bool ParseDoubleValue(const char* text, double* out) {
  return ParseNumber(text, out);
}

Status ParseCli(int argc, char** argv, CliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* prefix) -> const char* {
      const size_t len = std::strlen(prefix);
      if (arg.compare(0, len, prefix) == 0) return arg.c_str() + len;
      return nullptr;
    };
    int64_t value = 0;
    if (const char* v = value_of("--txns=")) {
      if (!ParseInt64Value(v, &value) || value < 1) {
        return Status::InvalidArgument("bad --txns");
      }
      options->scale.measured_txns = value;
    } else if (const char* v2 = value_of("--warmup=")) {
      if (!ParseInt64Value(v2, &value) || value < 0) {
        return Status::InvalidArgument("bad --warmup");
      }
      options->scale.warmup_txns = value;
    } else if (const char* v3 = value_of("--runs=")) {
      if (!ParseInt64Value(v3, &value) || value < 1 || value > 100) {
        return Status::InvalidArgument("bad --runs");
      }
      options->scale.runs = static_cast<int32_t>(value);
    } else if (const char* v4 = value_of("--seed=")) {
      if (!ParseInt64Value(v4, &value) || value < 0) {
        return Status::InvalidArgument("bad --seed");
      }
      options->scale.base_seed = static_cast<uint64_t>(value);
    } else if (const char* v5 = value_of("--csv=")) {
      options->csv_path = v5;
    } else if (const char* v6 = value_of("--jobs=")) {
      if (!ParseInt64Value(v6, &value) || value < 1 || value > 4096) {
        return Status::InvalidArgument("bad --jobs");
      }
      options->jobs = static_cast<int>(value);
    } else if (const char* v7 = value_of("--cc=")) {
      const Status status = cc::Engines().Parse(v7, &options->cc_protocol);
      if (!status.ok()) return status;
      options->cc = v7;
    } else if (const char* v8 = value_of("--commit=")) {
      const Status status =
          proto::CommitPaths().Parse(v8, &options->commit_path);
      if (!status.ok()) return status;
      options->commit = v8;
    } else if (const char* v9 = value_of("--lease=")) {
      const Status status =
          lease::LeaseModes().Parse(v9, &options->lease_options.mode);
      if (!status.ok()) return status;
      options->lease = v9;
    } else if (const char* v10 = value_of("--lease-ttl=")) {
      if (!ParseInt64Value(v10, &value) || value < 0) {
        return Status::InvalidArgument("bad --lease-ttl");
      }
      options->lease_options.ttl = value;
    } else if (const char* v11 = value_of("--lease-max-held=")) {
      if (!ParseInt64Value(v11, &value) || value < 0 ||
          value > INT32_MAX) {
        return Status::InvalidArgument("bad --lease-max-held");
      }
      options->lease_options.max_held = static_cast<int32_t>(value);
    } else if (arg == "--full") {
      options->scale.measured_txns = 50000;
      options->scale.warmup_txns = 5000;
      options->scale.runs = 5;
    } else if (arg == "--quick") {
      options->scale.measured_txns = 800;
      options->scale.warmup_txns = 100;
      options->scale.runs = 2;
    } else if (arg == "--smoke") {
      options->scale.measured_txns = 200;
      options->scale.warmup_txns = 20;
      options->scale.runs = 1;
    } else if (arg == "--help" || arg == "-h") {
      std::fprintf(stderr,
                   "usage: %s [--txns=N] [--warmup=N] [--runs=N] [--seed=N] "
                   "[--jobs=N] [--cc=NAME] [--commit=NAME] [--lease=NAME] "
                   "[--lease-ttl=N] [--lease-max-held=N] "
                   "[--full] [--quick] [--smoke] [--csv=PATH]\n  engines: %s\n"
                   "  commit paths: %s\n  lease modes: %s\n",
                   argv[0], cc::Engines().Names().c_str(),
                   proto::CommitPaths().Names().c_str(),
                   lease::LeaseModes().Names().c_str());
      std::exit(0);
    } else {
      return Status::InvalidArgument("unknown flag " + arg);
    }
  }
  return Status::Ok();
}

void PrintBanner(const std::string& title, const CliOptions& options) {
  std::printf("=== %s ===\n", title.c_str());
  std::printf(
      "scale: %lld measured txns (+%lld warmup) x %d replications, "
      "seed %llu, %d worker thread(s)\n\n",
      static_cast<long long>(options.scale.measured_txns),
      static_cast<long long>(options.scale.warmup_txns), options.scale.runs,
      static_cast<unsigned long long>(options.scale.base_seed),
      exec::ResolveJobs(options.jobs));
}

}  // namespace gtpl::harness
