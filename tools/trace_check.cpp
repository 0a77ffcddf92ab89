// trace_check — structural validator for the Chrome-trace exports.
//
// Parses the JSON with the same parser the test-suite uses, then checks the
// shape Perfetto/chrome://tracing relies on: a traceEvents array whose
// entries carry name/ph/pid/tid, complete ("X") events with non-negative
// durations, and instants with a scope. With --expect-marp it additionally
// requires the MARP span taxonomy (migration, lock-wait, quorum-win,
// commit-fanout) to actually appear, which is what the CI smoke asserts.
//
// --merged switches to the multi-node layout marp_cluster / trace_merge
// write (one pid per node) and validates what the merge step promises:
//   * every pid that carries events has exactly one process_name metadata
//     record, and no two pids share a name (one pid per node);
//   * flow events ("s"/"f") are accepted, must pair up — same id, one start,
//     one finish, finish not before start — and each endpoint must land on
//     an existing complete span on its own pid/tid (a flow arrow into thin
//     air means the stitcher emitted garbage);
//   * timestamps are non-negative, i.e. the clock alignment + rebase held.
// --expect-cross K (implies the layout checks) additionally requires some
// agent's spans to appear on >= K distinct pids — the acceptance bar for a
// real cross-process tour.
//
//   trace_check out.json
//   trace_check --expect-marp out.json
//   trace_check --merged --expect-cross 3 merged.json
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "trace/json.hpp"
#include "util/flags.hpp"

namespace {

using marp::trace::JsonValue;

int fail(const std::string& message) {
  std::cerr << "trace_check: " << message << "\n";
  return 1;
}

const JsonValue* field(const JsonValue& object, const char* key) {
  return object.is_object() ? object.find(key) : nullptr;
}

struct SpanRef {
  double pid = 0, tid = 0, ts = 0, dur = 0;
};

struct FlowRef {
  double pid = 0, tid = 0, ts = 0;
  std::size_t index = 0;
  bool seen = false;
};

}  // namespace

int main(int argc, char** argv) {
  bool expect_marp = false;
  bool merged = false;
  std::size_t expect_cross = 0;
  std::vector<std::string> paths;
  marp::util::Flags flags("trace_check");
  flags.toggle("--expect-marp", expect_marp, true, "require the MARP span taxonomy")
      .toggle("--merged", merged, true, "validate marp_cluster's one-pid-per-node layout")
      .add("--expect-cross", "K", expect_cross,
           "require an agent's spans on >= K pids (implies --merged)")
      .positional("TRACE", paths, "the Chrome-trace JSON file to check");
  flags.parse(argc, argv);
  if (paths.size() != 1) flags.fail("expected one trace file");
  if (expect_cross > 0) merged = true;
  const std::string& path = paths.front();

  std::ifstream in(path, std::ios::binary);
  if (!in) return fail("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();

  JsonValue root;
  try {
    root = marp::trace::parse_json(buffer.str());
  } catch (const std::exception& error) {
    return fail(std::string("invalid JSON: ") + error.what());
  }

  if (!root.is_object()) return fail("top level is not an object");
  const JsonValue* events = field(root, "traceEvents");
  if (!events || !events->is_array()) return fail("missing traceEvents array");

  std::set<std::string> names;
  std::size_t complete = 0, instants = 0, metadata = 0, flows = 0;
  // Merged-layout state: process names per pid, spans for the flow
  // cross-check, flow endpoints keyed by id, agent -> pids touched.
  std::map<double, std::string> process_names;
  std::set<double> event_pids;
  std::vector<SpanRef> spans;
  std::map<double, std::pair<FlowRef, FlowRef>> flow_pairs;  // id -> (s, f)
  std::map<std::string, std::set<double>> agent_pids;

  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const JsonValue& event = events->array[i];
    const std::string at = "event #" + std::to_string(i);
    if (!event.is_object()) return fail(at + " is not an object");
    const JsonValue* name = field(event, "name");
    const JsonValue* ph = field(event, "ph");
    const JsonValue* pid = field(event, "pid");
    const JsonValue* tid = field(event, "tid");
    if (!name || !name->is_string()) return fail(at + " has no name");
    if (!ph || !ph->is_string()) return fail(at + " has no ph");
    if (!pid || !pid->is_number()) return fail(at + " has no pid");
    if (!tid || !tid->is_number()) return fail(at + " has no tid");
    names.insert(name->str);
    if (ph->str != "M") event_pids.insert(pid->number);
    if (ph->str == "X") {
      ++complete;
      const JsonValue* ts = field(event, "ts");
      const JsonValue* dur = field(event, "dur");
      if (!ts || !ts->is_number()) return fail(at + " (X) has no ts");
      if (!dur || !dur->is_number()) return fail(at + " (X) has no dur");
      if (ts->number < 0) return fail(at + " has negative ts");
      if (dur->number < 0) return fail(at + " has negative dur");
      if (merged) {
        spans.push_back({pid->number, tid->number, ts->number, dur->number});
        const JsonValue* args = field(event, "args");
        const JsonValue* agent = args ? field(*args, "agent") : nullptr;
        if (agent && agent->is_string()) {
          agent_pids[agent->str].insert(pid->number);
        }
      }
    } else if (ph->str == "i") {
      ++instants;
      const JsonValue* ts = field(event, "ts");
      const JsonValue* scope = field(event, "s");
      if (!ts || !ts->is_number()) return fail(at + " (i) has no ts");
      if (ts->number < 0) return fail(at + " has negative ts");
      if (!scope || !scope->is_string()) return fail(at + " (i) has no scope");
    } else if (ph->str == "M") {
      ++metadata;
      if (merged && name->str == "process_name") {
        const JsonValue* args = field(event, "args");
        const JsonValue* pname = args ? field(*args, "name") : nullptr;
        if (!pname || !pname->is_string()) {
          return fail(at + " process_name has no args.name");
        }
        auto [it, inserted] = process_names.emplace(pid->number, pname->str);
        if (!inserted) {
          return fail(at + " pid " + std::to_string(pid->number) +
                      " has two process_name records ('" + it->second +
                      "', '" + pname->str + "')");
        }
      }
    } else if (merged && (ph->str == "s" || ph->str == "f")) {
      ++flows;
      const JsonValue* ts = field(event, "ts");
      const JsonValue* id = field(event, "id");
      if (!ts || !ts->is_number()) return fail(at + " (flow) has no ts");
      if (ts->number < 0) return fail(at + " has negative ts");
      if (!id || !id->is_number()) return fail(at + " (flow) has no id");
      auto& pair = flow_pairs[id->number];
      FlowRef& slot = ph->str == "s" ? pair.first : pair.second;
      if (slot.seen) {
        return fail(at + " duplicate flow " + ph->str + " for id " +
                    std::to_string(id->number));
      }
      slot = {pid->number, tid->number, ts->number, i, true};
    } else {
      return fail(at + " has unexpected ph '" + ph->str + "'");
    }
  }

  if (merged) {
    // One pid per node: every pid that carries events is named, uniquely.
    std::map<std::string, double> name_owner;
    for (const double pid : event_pids) {
      const auto it = process_names.find(pid);
      if (it == process_names.end()) {
        return fail("pid " + std::to_string(pid) +
                    " carries events but has no process_name metadata");
      }
      const auto [owner, inserted] = name_owner.emplace(it->second, pid);
      if (!inserted) {
        return fail("pids " + std::to_string(owner->second) + " and " +
                    std::to_string(pid) + " share process_name '" +
                    it->second + "'");
      }
    }

    // Flow arrows: paired, ordered, and anchored on real spans.
    const auto anchored = [&spans](const FlowRef& f) {
      for (const SpanRef& s : spans) {
        if (s.pid == f.pid && s.tid == f.tid && s.ts <= f.ts &&
            f.ts <= s.ts + s.dur) {
          return true;
        }
      }
      return false;
    };
    for (const auto& [id, pair] : flow_pairs) {
      const std::string which = "flow id " + std::to_string(id);
      if (!pair.first.seen) return fail(which + " has a finish but no start");
      if (!pair.second.seen) return fail(which + " has a start but no finish");
      if (pair.second.ts < pair.first.ts) {
        return fail(which + " finishes before it starts");
      }
      if (!anchored(pair.first)) {
        return fail(which + " start (event #" +
                    std::to_string(pair.first.index) +
                    ") is not anchored on any span");
      }
      if (!anchored(pair.second)) {
        return fail(which + " finish (event #" +
                    std::to_string(pair.second.index) +
                    ") is not anchored on any span");
      }
    }

    if (expect_cross > 0) {
      std::size_t best = 0;
      std::string best_agent;
      for (const auto& [agent, pids] : agent_pids) {
        if (pids.size() > best) {
          best = pids.size();
          best_agent = agent;
        }
      }
      if (best < expect_cross) {
        return fail("no agent's spans cross " + std::to_string(expect_cross) +
                    " pids (best: " + std::to_string(best) +
                    (best_agent.empty() ? "" : " by " + best_agent) + ")");
      }
      std::cout << "trace_check: widest tour: " << best_agent << " across "
                << best << " pids\n";
    }
  }

  if (expect_marp) {
    for (const char* required :
         {"migration", "lock-wait", "quorum-win", "commit-fanout", "session",
          "update-round", "visit"}) {
      if (!names.contains(required)) {
        return fail(std::string("expected MARP span '") + required +
                    "' not present");
      }
    }
    if (complete == 0) return fail("no complete (X) events in a MARP trace");
  }

  std::cout << "trace_check: " << path << " ok — " << events->array.size()
            << " events (" << complete << " spans, " << instants
            << " instants, " << metadata << " metadata, " << flows
            << " flows), " << names.size() << " distinct names";
  if (merged) std::cout << ", " << event_pids.size() << " pids";
  std::cout << "\n";
  return 0;
}
