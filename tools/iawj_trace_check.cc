// iawj_trace_check — validate a Chrome Trace Event JSON file produced by the
// trace recorder (IAWJ_TRACE_FILE).
//
// Checks:
//   - the file parses as JSON and has a traceEvents array
//   - every event carries name/ph/pid/tid (and ts for non-metadata events)
//   - per thread, B/E events pair up, nest properly, and names match
//   - per thread, timestamps are non-decreasing
//
// Prints a summary (threads, spans, max nesting depth, duration) and exits
// non-zero on the first violation. Usage:
//   iawj_trace_check trace.json
//
// With --records, validates structured run records (IAWJ_METRICS_DIR JSON
// files) instead: shape of the v2+ fields, for v3 records the internal
// consistency of the `recovery` block (flag/counter agreement, shed_ratio
// in [0, 1], well-formed events), for v4 records the `scheduler` block
// (morsel mode, non-negative counters, per-worker rows summing to the
// totals), for v5 records the always-present `pmu` block (measured
// counters non-negative, per-phase deltas summing to the totals, or a
// nonempty unavailability reason) and `metrics` block (enabled flag,
// non-negative counters), for v6 records the `spill` block (spilled
// runs only: non-negative counters, residency split summing within the
// partition count), and for v7 records the `ingest` block (ingested runs
// only: non-negative counts, late_admitted + late_dropped <= late_total,
// watermark <= max ts, and the conservation invariant tuples_out +
// late_dropped + duplicates + corrupt == tuples_in). Older versions are
// still accepted. Usage:
//   iawj_trace_check --records <run_record.json | metrics-dir>
#include <dirent.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "src/common/flags.h"
#include "src/common/json.h"

namespace iawj {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "FAIL: %s\n", message.c_str());
  return 1;
}

// --- Run-record validation (--records) ---

bool IsBool(const json::Value* v) {
  return v != nullptr && v->kind == json::Value::Kind::kBool;
}

// Validates one run-record JSON object; returns a failure description or
// empty. `where` prefixes every message with the file name.
std::string CheckRecord(const json::Value& root, const std::string& where) {
  if (!root.is_object()) return where + ": not a JSON object";
  const json::Value* version = root.Find("record_version");
  if (version == nullptr || !version->is_number() || version->number < 2) {
    return where + ": missing record_version >= 2";
  }
  const json::Value* status = root.Find("status");
  if (status == nullptr || !status->is_string() ||
      (status->string != "ok" && status->string != "failed")) {
    return where + ": status must be \"ok\" or \"failed\"";
  }
  if (status->string == "failed") {
    const json::Value* code = root.Find("status_code");
    if (code == nullptr || !code->is_string() || code->string.empty()) {
      return where + ": failed record without status_code";
    }
  }
  const json::Value* algorithm = root.Find("algorithm");
  if (algorithm == nullptr || !algorithm->is_string()) {
    return where + ": missing algorithm";
  }
  for (const char* field : {"inputs", "matches", "checksum", "elapsed_ms"}) {
    const json::Value* v = root.Find(field);
    if (v == nullptr || !v->is_number()) {
      return where + ": missing numeric " + field;
    }
  }

  // v4: scheduler block, present only for morsel-scheduled runs. Totals
  // must be non-negative and the per-worker array must sum to them.
  if (const json::Value* sched = root.Find("scheduler"); sched != nullptr) {
    if (version->number < 4) {
      return where + ": scheduler block requires record_version >= 4";
    }
    if (!sched->is_object()) return where + ": scheduler is not an object";
    const json::Value* mode = sched->Find("mode");
    if (mode == nullptr || !mode->is_string() || mode->string != "morsel") {
      return where + ": scheduler.mode must be \"morsel\"";
    }
    const char* totals[] = {"morsel_size",  "numa_nodes",   "morsels",
                            "tuples",       "steals",       "steal_misses",
                            "remote_steals"};
    for (const char* field : totals) {
      const json::Value* v = sched->Find(field);
      if (v == nullptr || !v->is_number() || v->number < 0) {
        return where + ": scheduler." + field + " missing or negative";
      }
    }
    const json::Value* workers = sched->Find("workers");
    if (workers == nullptr || !workers->is_array() || workers->array.empty()) {
      return where + ": scheduler.workers missing or empty";
    }
    double sum_morsels = 0, sum_steals = 0;
    size_t index = 0;
    for (const json::Value& wkr : workers->array) {
      const std::string at =
          where + ": scheduler.workers[" + std::to_string(index++) + "]";
      if (!wkr.is_object()) return at + " is not an object";
      for (const char* field : {"worker", "node", "morsels", "tuples",
                                "steals", "steal_misses", "remote_steals"}) {
        const json::Value* v = wkr.Find(field);
        if (v == nullptr || !v->is_number() || v->number < 0) {
          return at + " missing numeric " + field;
        }
      }
      sum_morsels += wkr.Find("morsels")->number;
      sum_steals += wkr.Find("steals")->number;
    }
    if (sum_morsels != sched->Find("morsels")->number ||
        sum_steals != sched->Find("steals")->number) {
      return where + ": scheduler totals disagree with the workers array";
    }
  }

  // v5: pmu + metrics blocks, both mandatory from v5 on. A record may
  // lack measurements, but it must SAY so ({available: false, reason} /
  // {enabled: false}) — silence is indistinguishable from a wiring bug.
  if (version->number >= 5) {
    const json::Value* pmu = root.Find("pmu");
    if (pmu == nullptr || !pmu->is_object()) {
      return where + ": v5 record without pmu object";
    }
    const json::Value* available = pmu->Find("available");
    if (!IsBool(available)) return where + ": pmu.available missing";
    if (!available->boolean) {
      const json::Value* reason = pmu->Find("reason");
      if (reason == nullptr || !reason->is_string() || reason->string.empty()) {
        return where + ": unavailable pmu without a reason";
      }
    } else {
      const json::Value* events = pmu->Find("events");
      if (events == nullptr || !events->is_array() || events->array.empty()) {
        return where + ": available pmu without events";
      }
      const json::Value* totals = pmu->Find("totals");
      const json::Value* phases = pmu->Find("phases");
      if (totals == nullptr || !totals->is_object()) {
        return where + ": pmu.totals missing";
      }
      if (phases == nullptr || !phases->is_object()) {
        return where + ": pmu.phases missing";
      }
      for (const json::Value& event : events->array) {
        if (!event.is_string() || event.string.empty()) {
          return where + ": pmu.events entry is not a name";
        }
        const json::Value* total = totals->Find(event.string);
        if (total == nullptr || !total->is_number() || total->number < 0) {
          return where + ": pmu.totals." + event.string +
                 " missing or negative";
        }
        // Phase deltas: each non-negative, and their sum must not exceed
        // the run total (equality holds by construction — totals are
        // defined as the sum over phases — but only <= is contractual).
        double phase_sum = 0;
        for (const auto& [phase_name, phase] : phases->object) {
          const json::Value* delta = phase.Find(event.string);
          if (delta == nullptr || !delta->is_number() || delta->number < 0) {
            return where + ": pmu.phases." + phase_name + "." + event.string +
                   " missing or negative";
          }
          phase_sum += delta->number;
        }
        if (phase_sum > total->number) {
          return where + ": pmu." + event.string +
                 " phase deltas exceed the run total";
        }
      }
    }
    const json::Value* metrics = root.Find("metrics");
    if (metrics == nullptr || !metrics->is_object()) {
      return where + ": v5 record without metrics object";
    }
    const json::Value* enabled = metrics->Find("enabled");
    if (!IsBool(enabled)) return where + ": metrics.enabled missing";
    if (enabled->boolean) {
      const json::Value* counters_obj = metrics->Find("counters");
      if (counters_obj == nullptr || !counters_obj->is_object()) {
        return where + ": enabled metrics without counters";
      }
      for (const auto& [name, value] : counters_obj->object) {
        if (!value.is_number() || value.number < 0) {
          return where + ": metrics.counters." + name +
                 " missing or negative";
        }
      }
    }
  }

  // v6: spill block, present only when the run staged partitions on disk.
  if (const json::Value* spill = root.Find("spill"); spill != nullptr) {
    if (version->number < 6) {
      return where + ": spill block requires record_version >= 6";
    }
    if (!spill->is_object()) return where + ": spill is not an object";
    for (const char* field :
         {"partitions", "partitions_spilled", "partitions_resident",
          "bytes_written", "bytes_read", "pages_written", "pages_read",
          "recursion_depth", "bnl_fallbacks", "spill_elapsed_ms"}) {
      const json::Value* v = spill->Find(field);
      if (v == nullptr || !v->is_number() || v->number < 0) {
        return where + ": spill." + field + " missing or negative";
      }
    }
    const double partitions = spill->Find("partitions")->number;
    const double spilled = spill->Find("partitions_spilled")->number;
    const double resident = spill->Find("partitions_resident")->number;
    // Empty partitions belong to neither list, so <= rather than ==.
    if (spilled + resident > partitions) {
      return where + ": spill residency split exceeds the partition count";
    }
    if (spilled > 0 && spill->Find("bytes_written")->number <= 0) {
      return where + ": spilled partitions but no bytes written";
    }
  }

  // v7: ingest block, present only when the run's inputs went through the
  // disorder-tolerant ingestion layer. Every tuple must be accounted for:
  // admitted, or quarantined under a typed disposition — never silent.
  if (const json::Value* ingest = root.Find("ingest"); ingest != nullptr) {
    if (version->number < 7) {
      return where + ": ingest block requires record_version >= 7";
    }
    if (!ingest->is_object()) return where + ": ingest is not an object";
    for (const char* field :
         {"tuples_in", "tuples_out", "reordered", "late_total",
          "late_admitted", "late_dropped", "duplicates", "corrupt",
          "watermark_clamps", "max_disorder_ms", "max_ts_ms",
          "final_watermark_ms"}) {
      const json::Value* v = ingest->Find(field);
      if (v == nullptr || !v->is_number() || v->number < 0) {
        return where + ": ingest." + field + " missing or negative";
      }
    }
    const double tuples_in = ingest->Find("tuples_in")->number;
    const double tuples_out = ingest->Find("tuples_out")->number;
    const double late_total = ingest->Find("late_total")->number;
    const double late_admitted = ingest->Find("late_admitted")->number;
    const double late_dropped = ingest->Find("late_dropped")->number;
    const double duplicates = ingest->Find("duplicates")->number;
    const double corrupt = ingest->Find("corrupt")->number;
    if (late_admitted + late_dropped > late_total) {
      return where + ": ingest late dispositions exceed late_total";
    }
    if (tuples_out + late_dropped + duplicates + corrupt != tuples_in) {
      return where + ": ingest conservation violated (out + quarantined "
             "!= in)";
    }
    if (ingest->Find("final_watermark_ms")->number >
        ingest->Find("max_ts_ms")->number) {
      return where + ": ingest watermark beyond the maximum timestamp";
    }
  }

  // v8: kernels block — always present from v8 on, naming the resolved
  // mode and the variant each phase executed. Values are closed enums, so
  // a typo'd or stale writer fails here rather than in a downstream A/B.
  if (const json::Value* kernels = root.Find("kernels"); kernels != nullptr) {
    if (version->number < 8) {
      return where + ": kernels block requires record_version >= 8";
    }
    if (!kernels->is_object()) return where + ": kernels is not an object";
    const auto one_of = [&](const char* field,
                            std::initializer_list<const char*> allowed)
        -> std::string {
      const json::Value* v = kernels->Find(field);
      if (v == nullptr || !v->is_string()) {
        return where + ": kernels." + field + " missing or not a string";
      }
      for (const char* a : allowed) {
        if (v->string == a) return "";
      }
      return where + ": kernels." + field + " has unknown value '" +
             v->string + "'";
    };
    if (std::string err = one_of("mode", {"scalar", "auto"});
        !err.empty()) {
      return err;
    }
    if (std::string err = one_of("scatter", {"scalar", "swwc"});
        !err.empty()) {
      return err;
    }
    if (std::string err = one_of("build", {"scalar", "lockfree"});
        !err.empty()) {
      return err;
    }
    if (std::string err = one_of("probe", {"scalar", "batched", "simd"});
        !err.empty()) {
      return err;
    }
  } else if (version->number >= 8) {
    return where + ": record_version >= 8 but no kernels block";
  }

  // v9: serve block, present only for windows executed inside the
  // iawj_serve daemon. Carries the multi-tenant provenance (tenant,
  // tumbling slot, pool state) that ties the record back to one tenant
  // window of one daemon run.
  if (const json::Value* serve = root.Find("serve"); serve != nullptr) {
    if (version->number < 9) {
      return where + ": serve block requires record_version >= 9";
    }
    if (!serve->is_object()) return where + ": serve is not an object";
    const json::Value* tenant = serve->Find("tenant");
    if (tenant == nullptr || !tenant->is_string() || tenant->string.empty()) {
      return where + ": serve.tenant missing or empty";
    }
    for (const char* field :
         {"window_index", "window_start_ms", "tenants_active", "queue_depth",
          "cross_tenant_steals", "windows_shed", "wait_ms"}) {
      const json::Value* v = serve->Find(field);
      if (v == nullptr || !v->is_number() || v->number < 0) {
        return where + ": serve." + field + " missing or negative";
      }
    }
    const json::Value* worker = serve->Find("worker");
    if (worker == nullptr || !worker->is_number() || worker->number < -1) {
      return where + ": serve.worker missing or below -1";
    }
    const json::Value* stolen = serve->Find("stolen");
    if (stolen == nullptr ||
        stolen->kind != json::Value::Kind::kBool) {
      return where + ": serve.stolen missing or not a boolean";
    }
    if (serve->Find("tenants_active")->number < 1) {
      return where + ": serve.tenants_active < 1 on a served window";
    }
  }

  const json::Value* recovery = root.Find("recovery");
  if (recovery == nullptr) return "";  // unsupervised: no block to check
  if (version->number < 3) {
    return where + ": recovery block requires record_version >= 3";
  }
  if (!recovery->is_object()) return where + ": recovery is not an object";
  const char* counters[] = {"attempts",        "fallbacks_taken",
                            "windows_skipped", "tuples_dropped",
                            "est_matches_lost", "tuples_shed", "shed_ratio"};
  for (const char* field : counters) {
    const json::Value* v = recovery->Find(field);
    if (v == nullptr || !v->is_number() || v->number < 0) {
      return where + ": recovery." + field + " missing or negative";
    }
  }
  const double shed_ratio = recovery->Find("shed_ratio")->number;
  const double tuples_shed = recovery->Find("tuples_shed")->number;
  if (shed_ratio > 1.0) return where + ": shed_ratio > 1";
  if ((tuples_shed > 0) != (shed_ratio > 0)) {
    return where + ": tuples_shed and shed_ratio disagree";
  }
  const json::Value* recovered = recovery->Find("recovered");
  const json::Value* degraded = recovery->Find("degraded");
  if (!IsBool(recovered) || !IsBool(degraded)) {
    return where + ": recovery.recovered/degraded missing";
  }
  const bool want_recovered = recovery->Find("attempts")->number > 1 ||
                              recovery->Find("fallbacks_taken")->number > 0;
  if (recovered->boolean != want_recovered) {
    return where + ": recovered flag disagrees with attempts/fallbacks";
  }
  const bool want_degraded =
      recovery->Find("windows_skipped")->number > 0 || tuples_shed > 0 ||
      recovery->Find("tuples_dropped")->number > 0;
  if (degraded->boolean != want_degraded) {
    return where + ": degraded flag disagrees with skip/shed/drop counters";
  }
  const json::Value* events = recovery->Find("events");
  if (events == nullptr || !events->is_array()) {
    return where + ": recovery.events missing";
  }
  size_t index = 0;
  for (const json::Value& event : events->array) {
    const std::string at = where + ": recovery.events[" +
                           std::to_string(index++) + "]";
    if (!event.is_object()) return at + " is not an object";
    for (const char* field : {"action", "trigger"}) {
      const json::Value* v = event.Find(field);
      if (v == nullptr || !v->is_string() || v->string.empty()) {
        return at + " missing string " + field;
      }
    }
    const json::Value* attempt = event.Find("attempt");
    if (attempt == nullptr || !attempt->is_number() || attempt->number < 0) {
      return at + " missing attempt";
    }
  }
  return "";
}

int CheckRecords(const std::string& path, bool verbose) {
  // A directory validates every *.json inside (one level); a file validates
  // just itself.
  std::vector<std::string> files;
  if (DIR* dir = opendir(path.c_str()); dir != nullptr) {
    while (const dirent* entry = readdir(dir)) {
      const std::string name = entry->d_name;
      if (name.size() > 5 && name.substr(name.size() - 5) == ".json") {
        files.push_back(path + "/" + name);
      }
    }
    closedir(dir);
    std::sort(files.begin(), files.end());
    if (files.empty()) return Fail("no .json records in " + path);
  } else {
    files.push_back(path);
  }

  size_t supervised = 0, pmu_measured = 0, spilled = 0, ingested = 0,
         served = 0;
  for (const std::string& file : files) {
    std::ifstream in(file);
    if (!in) return Fail("cannot open " + file);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    json::Value root;
    if (const Status status = json::Parse(buffer.str(), &root); !status.ok()) {
      return Fail(file + ": " + status.ToString());
    }
    if (const std::string err = CheckRecord(root, file); !err.empty()) {
      return Fail(err);
    }
    if (root.Find("recovery") != nullptr) ++supervised;
    if (root.Find("spill") != nullptr) ++spilled;
    if (root.Find("ingest") != nullptr) ++ingested;
    if (root.Find("serve") != nullptr) ++served;
    if (const json::Value* pmu = root.Find("pmu"); pmu != nullptr) {
      const json::Value* available = pmu->Find("available");
      if (IsBool(available) && available->boolean) ++pmu_measured;
    }
    if (verbose) std::printf("ok: %s\n", file.c_str());
  }
  std::printf(
      "OK: %zu record(s) validated, %zu with recovery blocks, "
      "%zu with measured pmu counters, %zu with spill blocks, "
      "%zu with ingest blocks, %zu with serve blocks\n",
      files.size(), supervised, pmu_measured, spilled, ingested, served);
  return 0;
}

struct ThreadState {
  std::vector<std::string> open;  // names of open B spans, innermost last
  double last_ts = -1;
  std::string name;
  size_t events = 0;
  size_t spans = 0;
  size_t max_depth = 0;
};

int Run(int argc, char** argv) {
  FlagParser flags;
  if (const Status status = flags.Parse(argc, argv); !status.ok()) {
    return Fail(status.ToString());
  }
  const bool verbose = flags.GetBool("verbose", false);
  // Both "--records <path>" (the parser binds the path to the flag) and
  // "--records=1 <path>" work.
  const std::string records = flags.GetString("records", "");
  if (const auto unknown = flags.Unknown(); !unknown.empty()) {
    return Fail("unknown flag --" + unknown.front());
  }
  const bool records_mode = !records.empty() && records != "false" &&
                            records != "0";
  std::string path;
  if (records_mode && records != "true") {
    path = records;
  } else if (flags.positional().size() == 1) {
    path = flags.positional().front();
  } else {
    return Fail(
        "usage: iawj_trace_check [--verbose] <trace.json>\n"
        "       iawj_trace_check --records [--verbose] <record.json | dir>");
  }
  if (records_mode) return CheckRecords(path, verbose);

  std::ifstream in(path);
  if (!in) return Fail("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  json::Value root;
  if (const Status status = json::Parse(text, &root); !status.ok()) {
    return Fail(status.ToString());
  }
  if (!root.is_object()) return Fail("top-level value is not an object");
  const json::Value* events = root.Find("traceEvents");
  if (events == nullptr || !events->is_array()) {
    return Fail("missing traceEvents array");
  }

  std::map<std::pair<int64_t, int64_t>, ThreadState> threads;
  double min_ts = -1, max_ts = -1;
  size_t index = 0;
  for (const json::Value& event : events->array) {
    const std::string where = "event " + std::to_string(index++);
    if (!event.is_object()) return Fail(where + ": not an object");
    const json::Value* name = event.Find("name");
    const json::Value* ph = event.Find("ph");
    const json::Value* pid = event.Find("pid");
    const json::Value* tid = event.Find("tid");
    if (name == nullptr || !name->is_string()) {
      return Fail(where + ": missing string name");
    }
    if (ph == nullptr || !ph->is_string() || ph->string.size() != 1) {
      return Fail(where + ": missing one-character ph");
    }
    if (pid == nullptr || !pid->is_number() || tid == nullptr ||
        !tid->is_number()) {
      return Fail(where + ": missing numeric pid/tid");
    }
    const char kind = ph->string[0];
    if (kind == 'M') continue;  // metadata: no ts/ordering requirements

    const json::Value* ts = event.Find("ts");
    if (ts == nullptr || !ts->is_number()) {
      return Fail(where + ": missing numeric ts");
    }
    ThreadState& thread = threads[{static_cast<int64_t>(pid->number),
                                   static_cast<int64_t>(tid->number)}];
    ++thread.events;
    if (ts->number < thread.last_ts) {
      return Fail(where + ": ts " + std::to_string(ts->number) +
                  " goes backwards on tid " + std::to_string(tid->number));
    }
    thread.last_ts = ts->number;
    if (min_ts < 0 || ts->number < min_ts) min_ts = ts->number;
    max_ts = std::max(max_ts, ts->number);

    switch (kind) {
      case 'B':
        thread.open.push_back(name->string);
        thread.max_depth = std::max(thread.max_depth, thread.open.size());
        ++thread.spans;
        break;
      case 'E':
        if (thread.open.empty()) {
          return Fail(where + ": E '" + name->string + "' without open B");
        }
        if (thread.open.back() != name->string) {
          return Fail(where + ": E '" + name->string +
                      "' closes open span '" + thread.open.back() + "'");
        }
        thread.open.pop_back();
        break;
      case 'i':
      case 'I':
      case 'C':
        break;
      default:
        return Fail(where + ": unsupported ph '" + ph->string + "'");
    }
  }

  size_t total_events = 0, total_spans = 0, max_depth = 0;
  for (const auto& [key, thread] : threads) {
    if (!thread.open.empty()) {
      return Fail("tid " + std::to_string(key.second) + ": span '" +
                  thread.open.back() + "' never closed");
    }
    total_events += thread.events;
    total_spans += thread.spans;
    max_depth = std::max(max_depth, thread.max_depth);
    if (verbose) {
      std::printf("tid %lld: %zu events, %zu spans, depth %zu\n",
                  static_cast<long long>(key.second), thread.events,
                  thread.spans, thread.max_depth);
    }
  }
  std::printf(
      "OK: %zu events on %zu threads, %zu spans, max depth %zu, "
      "%.3f ms spanned\n",
      total_events, threads.size(), total_spans, max_depth,
      max_ts < 0 ? 0.0 : (max_ts - min_ts) / 1000.0);
  return 0;
}

}  // namespace
}  // namespace iawj

int main(int argc, char** argv) { return iawj::Run(argc, argv); }
