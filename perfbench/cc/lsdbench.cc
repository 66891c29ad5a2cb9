// lsdbench — the C++ side of the repository benchmark (perfbench/run.py
// drives it; see perfbench/README.md).
//
//   lsdbench gen    --workload W --seed N --dir DIR
//   lsdbench seed   --port P --dir DIR
//   lsdbench drive  --port P --dir DIR [phase and check options]
//   lsdbench verify --port P --dir DIR --snapshot PREFIX
//   lsdbench replay --dir DIR --seconds S [--durable PREFIX]
#include <cstdio>
#include <cstring>

#include "bench.h"

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s gen|drive|verify|replay [--key value]..\n",
                 argv[0]);
    return 2;
  }
  const lsdbench::Args args(argc, argv, 2);
  if (std::strcmp(argv[1], "gen") == 0) return lsdbench::GenMain(args);
  if (std::strcmp(argv[1], "seed") == 0) return lsdbench::SeedMain(args);
  if (std::strcmp(argv[1], "drive") == 0) return lsdbench::DriveMain(args);
  if (std::strcmp(argv[1], "verify") == 0) return lsdbench::VerifyMain(args);
  if (std::strcmp(argv[1], "replay") == 0) return lsdbench::ReplayMain(args);
  std::fprintf(stderr, "unknown subcommand: %s\n", argv[1]);
  return 2;
}
