// iscope_perfbench: runs one benchmark workload and prints its metrics.
//
//   iscope_perfbench --workload paper_sweep|hyperscale_shards|serve_stream
//                    --seed N --seconds S --trace 0|1
//                    --serve-bin PATH --work-dir DIR
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones.
// The last stdout line is the JSON result; the exit code is 1 when an
// output check failed and 2 on a usage error or an aborted run.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "common/log.hpp"
#include "report.hpp"
#include "workloads.hpp"

namespace {

bool parse_args(int argc, char** argv, perfbench::Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(o.seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      o.trace = value == "1";
    } else if (flag == "--serve-bin") {
      o.serve_bin = value;
    } else if (flag == "--work-dir") {
      o.work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && !o.serve_bin.empty() &&
         !o.work_dir.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  if (!parse_args(argc, argv, opts)) {
    std::fprintf(stderr,
                 "usage: iscope_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --serve-bin PATH --work-dir DIR\n");
    return 2;
  }
  iscope::set_log_level(iscope::LogLevel::kWarn);
  perfbench::Report report(opts.workload);
  try {
    if (opts.workload == "paper_sweep")
      perfbench::run_paper_sweep(opts, report);
    else if (opts.workload == "hyperscale_shards")
      perfbench::run_hyperscale_shards(opts, report);
    else if (opts.workload == "serve_stream")
      perfbench::run_serve_stream(opts, report);
    else {
      std::fprintf(stderr, "iscope_perfbench: unknown workload '%s'\n",
                   opts.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "iscope_perfbench: %s: aborted: %s\n",
                 opts.workload.c_str(), e.what());
    return 2;
  }
  report.print(std::cout);
  return report.correct() ? 0 : 1;
}
