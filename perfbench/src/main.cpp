// scd_perfbench — one benchmark run of one workload (see ../README.md).
//
//   scd_perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--digests FILE] [--cache DIR] [--out DIR] [--tiny]
//   scd_perfbench --workload NAME --prepare [--seed N] [--cache DIR] [--tiny]
//   scd_perfbench --workload NAME --print-digests [--seed N] [--tiny]
//
// --prepare generates and caches the input and the alarm reference, so
// that the measuring process starts with a heap that generation has not
// touched. A run prepares whatever is not cached yet.
//
// Prints "# ..." information lines, then one line "RESULT {json}" with
// correct/attempted/failed and the metrics of the run. Exits non-zero on an
// error, without a RESULT line.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "host.h"
#include "runs.h"
#include "workload.h"

namespace {

using namespace perfbench;

constexpr std::uint64_t kDefaultSeed = 1;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  bool prepare = false;
  bool print_digests = false;
  std::string digests;
  std::string cache_dir = ".bench_cache";
  std::string out_dir = ".bench_out";
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--workload") {
      a.workload = value();
    } else if (flag == "--seed") {
      a.seed = std::stoull(value());
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value());
    } else if (flag == "--trace") {
      a.trace = value() != "0";
    } else if (flag == "--digests") {
      a.digests = value();
    } else if (flag == "--cache") {
      a.cache_dir = value();
    } else if (flag == "--out") {
      a.out_dir = value();
    } else if (flag == "--tiny") {
      a.tiny = true;
    } else if (flag == "--prepare") {
      a.prepare = true;
    } else if (flag == "--print-digests") {
      a.print_digests = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

std::string number(double v) {
  std::ostringstream out;
  out.precision(17);
  out << v;
  return out.str();
}

int run(const Args& args) {
  RunOptions options;
  options.workload = make_workload(args.workload, args.tiny);
  options.seed = args.seed;
  options.seconds = args.seconds;
  options.out_dir = args.out_dir;
  const unsigned nproc = std::max(1U, std::thread::hardware_concurrency());
  // W workers + merger + producer + spare cores never exceed the cores.
  const unsigned others = 2 + options.workload.spare_cores;
  options.workers = nproc > others + 1 ? nproc - others : 1;

  // The untraced serial workload reads its trace inside the timed window,
  // so only the traced run and the parallel feed keep the records.
  const bool keep = args.trace || options.workload.parallel;
  const Input input =
      prepare_input(options.workload, args.seed, args.cache_dir, keep);

  if (args.print_digests) {
    std::cout << args.workload << (args.tiny ? " tiny " : " full ") << args.seed;
    for (const auto& keys : input.reference) std::cout << ' ' << hex(alarm_digest(keys));
    std::cout << '\n';
    return 0;
  }

  std::cout << "# input " << input.record_count << " records, "
            << input.reference.size() << " intervals; generate_s "
            << number(input.generate_s) << ", reference_s "
            << number(input.reference_s) << ", load_s " << number(input.load_s)
            << '\n';
  if (args.prepare) return 0;

  DigestBook book;
  bool digest_missing = false;
  if (args.seed == kDefaultSeed) {
    if (args.digests.empty()) {
      throw std::invalid_argument("--digests is required for the default seed");
    }
    book = read_digest_book(args.digests);
    options.committed = book.find(args.workload, args.tiny, args.seed);
    digest_missing = options.committed == nullptr;
  }

  std::cout << "# host " << host_facts_json(options.workers) << '\n';
  const RunResult result = args.trace ? run_traced(options, input)
                                      : run_end_to_end(options, input);
  for (const auto& note : result.notes) std::cout << "# " << note << '\n';
  if (digest_missing) {
    std::cout << "# no committed digest for " << args.workload << " seed "
              << args.seed << '\n';
  }
  const double failed_pct =
      result.attempted == 0
          ? 100.0
          : 100.0 * static_cast<double>(result.failed) /
                static_cast<double>(result.attempted);
  std::cout << "# failed_intervals_pct " << number(failed_pct) << " ("
            << result.failed << " of " << result.attempted << ")\n";

  const bool correct = result.sound && result.failed == 0 &&
                       result.attempted > 0 && !digest_missing;
  std::cout << "RESULT {\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << '"' << m.name << "\": {\"value\": "
              << number(m.value) << ", \"unit\": \"" << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "scd_perfbench: " << e.what() << '\n';
    return 2;
  }
}
