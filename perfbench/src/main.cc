// Repository benchmark program: runs one workload against the shipped
// DitaConfig{} / ClusterConfig{}, checks every answer, and prints the
// workload's metrics as the last line of stdout.
//
//   perfbench --workload <serve_read|join_osm|ingest_mixed> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics; --trace 1 records spans around
// the calls into each layer and prints the per-layer metrics instead.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val, nullptr);
      have_seconds = true;
    } else if (key == "--trace") {
      args.trace = std::strcmp(val, "0") != 0;
      have_trace = true;
    } else {
      perfbench::Die("unknown flag " + key);
    }
  }
  if (argc % 2 != 1 || !have_seed || !have_seconds || !have_trace ||
      !(args.seconds > 0)) {
    perfbench::Die(
        "usage: perfbench --workload <w> --seed <n> --seconds <s> "
        "--trace <0|1>");
  }

  perfbench::Result result;
  if (args.workload == "serve_read") {
    perfbench::RunServeRead(args, &result);
  } else if (args.workload == "join_osm") {
    perfbench::RunJoinOsm(args, &result);
  } else if (args.workload == "ingest_mixed") {
    perfbench::RunIngestMixed(args, &result);
  } else {
    perfbench::Die("unknown workload " + args.workload);
  }
  std::printf("wrong_answers=%llu attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(result.wrong),
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  std::printf("%s\n", result.Json().c_str());
  return 0;
}
