// The iawj_cli flag table: the single source of truth for every flag the
// CLI accepts. --help prints it, iawj_cli.cc consumes exactly these names,
// flags_test.cc asserts the two never drift apart, and
// scripts/docs_check.py cross-checks docs/MANUAL.md against it.
#ifndef IAWJ_TOOLS_CLI_FLAGS_H_
#define IAWJ_TOOLS_CLI_FLAGS_H_

#include <cstddef>
#include <string>

namespace iawj {
namespace cli {

struct FlagInfo {
  const char* name;   // without the leading --
  const char* value;  // value hint, "" for booleans
  const char* help;   // one-line description with the default
};

// Grouped roughly by the order iawj_cli.cc consumes them.
inline constexpr FlagInfo kFlags[] = {
    // Workload selection and generation.
    {"workload", "<name>",
     "workload: micro|stock|rovio|ysb|debs|file (default micro)"},
    {"window", "<ms>", "window length in stream ms (default 1000)"},
    {"rate", "<tuples/ms>", "micro: R arrival rate (default 1600)"},
    {"rate-s", "<tuples/ms>", "micro: S arrival rate (default --rate)"},
    {"dupe", "<factor>", "micro: key duplication factor (default 1.0)"},
    {"zipf-key", "<theta>", "micro: key skew, 0 = uniform (default 0)"},
    {"zipf-ts", "<theta>",
     "micro: timestamp skew, 0 = uniform (default 0)"},
    {"size-r", "<tuples>", "micro: fixed |R|, 0 = rate*window (default 0)"},
    {"size-s", "<tuples>", "micro: fixed |S|, 0 = rate*window (default 0)"},
    {"seed", "<n>", "micro: generator seed (default 42)"},
    {"r", "<path>", "file: R input, .csv or binary (required)"},
    {"s", "<path>", "file: S input, .csv or binary (required)"},
    {"scale", "<factor>",
     "stock/rovio/ysb/debs: size scale factor (default 0.05)"},

    // Join configuration.
    {"algo", "<name>",
     "algorithm: npj|prj|mway|mpass|shj-jm|shj-jb|pmj-jm|pmj-jb|hhj|"
     "adaptive (default npj)"},
    {"threads", "<n>", "worker threads (default 4)"},
    {"realtime", "",
     "pace the virtual clock in wall time (default off: instant)"},
    {"time-scale", "<factor>", "realtime clock scale (default 1.0)"},
    {"radix-bits", "<n>",
     "PRJ/HHJ: total radix bits (default 10; HHJ caps at 7)"},
    {"radix-passes", "<1|2>", "PRJ: partitioning passes (default 1)"},
    {"pmj-delta", "<frac>", "PMJ: initial sorted-run fraction (default 0.2)"},
    {"jb-group", "<g>", "JB: core-group size, divides threads (default 2)"},
    {"physical-partition", "",
     "eager: copy owned tuples into worker-local buffers (default off)"},
    {"simd", "", "use vectorized kernels (default on; --no-simd disables)"},
    {"kernels", "<mode>",
     "hot-path kernels: auto|scalar (default auto -> $IAWJ_KERNELS)"},
    {"scheduler", "<mode>",
     "work scheduling: auto|static|morsel (default auto -> "
     "$IAWJ_SCHEDULER, then static)"},
    {"morsel-size", "<tuples>",
     "morsel scheduler grain, 0 = $IAWJ_MORSEL_SIZE or 16384 (default 0)"},

    // Execution and supervision.
    {"windows", "<n>", "tumbling windows to run (default 1)"},
    {"deadline", "<ms>",
     "per-run deadline, 0 = $IAWJ_DEADLINE_MS (default 0)"},
    {"retry", "<n>", "supervisor: max attempts, 0 = $IAWJ_RETRY (default 0)"},
    {"retry-backoff", "<ms>",
     "supervisor: backoff between attempts, -1 = keep $IAWJ_RETRY's "
     "backoff (default -1)"},
    {"fallback", "",
     "supervisor: fall back to a simpler algorithm on failure (default off)"},
    {"skip-windows", "",
     "supervisor: skip windows that fail all retries (default off)"},
    {"shed-watermark", "<tuples/ms>",
     "supervisor: shed load above this input rate, 0 = off (default 0)"},
    {"supervisor-seed", "<n>", "supervisor: shedding seed (default 42)"},
    {"disorder-slack", "<ms>",
     "ingest: reorder-buffer slack, 0 = $IAWJ_DISORDER_SLACK, -1 = off "
     "(default 0)"},
    {"allowed-lateness", "<ms>",
     "ingest: admit late tuples within this of the watermark, 0 = "
     "$IAWJ_ALLOWED_LATENESS, -1 = off (default 0)"},
    {"ingest-dedup", "",
     "ingest: quarantine exact (ts,key) re-deliveries (default off)"},
    {"disorder-shuffle", "<ms>",
     "test aid: permute arrivals within this bound before ingest; needs an "
     "enabled ingest policy (default 0)"},

    // Client mode (iawj_serve daemon).
    {"connect", "<socket>",
     "client mode: stream the workload to the iawj_serve daemon at this "
     "Unix socket instead of executing locally (default off)"},
    {"tenant", "<name>",
     "client mode: tenant name registered with the daemon (default cli)"},
    {"batch-ms", "<ms>",
     "client mode: stream-ms of arrivals per batch frame (default 100)"},

    // Output.
    {"counters", "<mode>",
     "counter source: off|sim|pmu; pmu = hardware perf events, sim = "
     "cache simulator (default off, $IAWJ_PMU=1 implies pmu)"},
    {"objective", "<name>",
     "adaptive: throughput|latency|progress (default throughput)"},
    {"csv", "<path>", "also write the metrics table as CSV"},
    {"help", "", "print this help and exit"},
};

inline constexpr size_t kNumFlags = sizeof(kFlags) / sizeof(kFlags[0]);

// The --help text: usage line plus one aligned row per table entry.
inline std::string HelpText() {
  std::string out =
      "usage: iawj_cli [--flag=value | --flag value | --flag | "
      "--no-flag]...\n\n"
      "Runs one IaWJ algorithm over one workload and prints its metrics.\n"
      "Exit codes: 0 ok, 1 generic, 2 invalid argument, 3 failed\n"
      "precondition, 4 resource exhausted, 5 deadline exceeded,\n"
      "6 cancelled, 7 data loss, 8 internal, 9 recovered, 10 degraded.\n\n";
  size_t width = 0;
  for (const FlagInfo& f : kFlags) {
    size_t w = 2 + std::string(f.name).size();  // "--name"
    if (f.value[0] != '\0') w += 1 + std::string(f.value).size();
    if (w > width) width = w;
  }
  for (const FlagInfo& f : kFlags) {
    std::string left = "--" + std::string(f.name);
    if (f.value[0] != '\0') left += "=" + std::string(f.value);
    out += "  " + left + std::string(width - left.size() + 2, ' ') +
           f.help + "\n";
  }
  return out;
}

}  // namespace cli
}  // namespace iawj

#endif  // IAWJ_TOOLS_CLI_FLAGS_H_
