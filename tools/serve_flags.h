// The iawj_serve flag table: single source of truth for every flag the
// daemon accepts, in the same shape as cli_flags.h. --help prints it,
// iawj_serve.cc consumes exactly these names, serve_test.cc asserts the two
// never drift apart, and scripts/docs_check.py cross-checks docs/MANUAL.md
// against it.
#ifndef IAWJ_TOOLS_SERVE_FLAGS_H_
#define IAWJ_TOOLS_SERVE_FLAGS_H_

#include <cstddef>
#include <string>

namespace iawj {
namespace serve_cli {

struct FlagInfo {
  const char* name;   // without the leading --
  const char* value;  // value hint, "" for booleans
  const char* help;   // one-line description with the default
};

// Every flag overrides its matching $IAWJ_SERVE_* environment variable
// (flag > env > default, the same precedence as the engine knobs).
inline constexpr FlagInfo kFlags[] = {
    {"socket", "<path>",
     "Unix socket to listen on (required; $IAWJ_SERVE_SOCKET)"},
    {"pool-threads", "<n>",
     "shared worker pool size ($IAWJ_SERVE_POOL_THREADS, default 4)"},
    {"max-tenants", "<n>",
     "admission: concurrent tenant bound ($IAWJ_SERVE_MAX_TENANTS, "
     "default 8)"},
    {"max-inflight", "<n>",
     "per-tenant in-flight window bound; submitters block at it "
     "($IAWJ_SERVE_MAX_INFLIGHT, default 4)"},
    {"max-buffer", "<tuples>",
     "per-tenant bound on unsealed tuples; batches past it are refused or "
     "shed ($IAWJ_SERVE_MAX_BUFFER, default 4194304)"},
    {"mem-share", "<frac>",
     "admission: fraction of $IAWJ_MEM_BUDGET one window may claim "
     "($IAWJ_SERVE_MEM_SHARE, default 1.0)"},
    {"help", "", "print this help and exit"},
};

inline constexpr size_t kNumFlags = sizeof(kFlags) / sizeof(kFlags[0]);

inline std::string HelpText() {
  std::string out =
      "usage: iawj_serve --socket=<path> [--flag=value]...\n\n"
      "Long-lived multi-tenant intra-window join daemon. Clients connect\n"
      "over the Unix socket (iawj_cli --connect), register one tenant per\n"
      "connection, stream tuple batches, and receive per-window results.\n"
      "SIGTERM/SIGINT drains: buffered windows finish, run records flush,\n"
      "clients get their result tails, then the daemon exits 0.\n"
      "Exit codes: 0 ok (including drained), 2 invalid argument, 3 failed\n"
      "precondition (bad socket path).\n\n";
  size_t width = 0;
  for (const FlagInfo& f : kFlags) {
    size_t w = 2 + std::string(f.name).size();
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

}  // namespace serve_cli
}  // namespace iawj

#endif  // IAWJ_TOOLS_SERVE_FLAGS_H_
