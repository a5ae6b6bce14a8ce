// perfbench_harness — the compiled half of the GNUMAP-SNP benchmark.
//
//   perfbench_harness gen --out DIR --seed N --length BP --snps N --coverage X
//   perfbench_harness batch --ref FA --reads FQ --seconds S --json OUT ...
//   perfbench_harness trace-batch --ref FA --reads FQ --json OUT --trace-out T
//   perfbench_harness expect --ref FA --requests DIR --count N --json OUT
//   perfbench_harness load --port P --requests DIR --count N --seconds S ...
//   perfbench_harness spread --ref FA --reads FQ --seconds S --json OUT ...
//
// perfbench/run.py drives these; each writes its measurements as one JSON
// object and exits non-zero, with the reason on stderr, when a check fails.
#include <cstdio>
#include <exception>
#include <string>

#include "common.hpp"

namespace perfbench {
int cmd_gen(const Args& args);
int cmd_batch(const Args& args);
int cmd_trace_batch(const Args& args);
int cmd_expect(const Args& args);
int cmd_spread(const Args& args);
int cmd_load(const Args& args);
}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s gen|batch|trace-batch|expect|load|spread "
                         "[--key value ...]\n", argv[0]);
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    const perfbench::Args args(argc, argv, 2);
    if (cmd == "gen") return perfbench::cmd_gen(args);
    if (cmd == "batch") return perfbench::cmd_batch(args);
    if (cmd == "trace-batch") return perfbench::cmd_trace_batch(args);
    if (cmd == "expect") return perfbench::cmd_expect(args);
    if (cmd == "spread") return perfbench::cmd_spread(args);
    if (cmd == "load") return perfbench::cmd_load(args);
    std::fprintf(stderr, "perfbench_harness: unknown subcommand %s\n",
                 cmd.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness %s: FAILED: %s\n", cmd.c_str(),
                 e.what());
    return 1;
  }
}
