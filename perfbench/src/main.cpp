// sbx_perfbench — the compiled half of the benchmark (run.py drives it).
//
//   sbx_perfbench gen --requests=N --train-every=K --seed=S --out=FILE
//   sbx_perfbench serve --endpoint=unix:PATH --inputs=FILE [--daemon-pid=P]
//                       [--durable] [--trace=CSV --replay-dir=DIR]
//                       [--flip-mirror | --no-mirror]
//   sbx_perfbench shutdown --endpoint=unix:PATH
//   sbx_perfbench fig1 --seed=S --attacks=a,b,c --training-set-size=N
//                      --folds=K [--threads=T] [--trace=CSV | --setup-only]
//
// Each subcommand prints one JSON line on stdout.
#include <cstdio>
#include <exception>
#include <string>

#include "common.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: sbx_perfbench gen|serve|shutdown|fig1 ...\n");
    return 2;
  }
  const std::string command = argv[1];
  try {
    perfbench::Args args(argc, argv, 2);
    if (command == "gen") return perfbench::cmd_gen(args);
    if (command == "serve") return perfbench::cmd_serve(args);
    if (command == "shutdown") return perfbench::cmd_shutdown(args);
    if (command == "fig1") return perfbench::cmd_fig1(args);
    std::fprintf(stderr, "sbx_perfbench: unknown command '%s'\n",
                 command.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sbx_perfbench %s: %s\n", command.c_str(), e.what());
    return 1;
  }
}
