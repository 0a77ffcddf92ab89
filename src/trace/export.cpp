#include "trace/export.hpp"

#include <map>
#include <ostream>
#include <string>

#include "trace/json.hpp"

namespace marp::trace {

namespace {

constexpr int kServersPid = 1;
constexpr int kAgentsPid = 2;

void write_metadata(std::ostream& os, const char* what, int pid, int tid,
                    const std::string& name, bool& first) {
  if (!first) os << ",\n";
  first = false;
  os << R"({"name":")" << what << R"(","ph":"M","pid":)" << pid << ",\"tid\":"
     << tid << R"(,"args":{"name":")" << json_escape(name) << "\"}}";
}

const char* outcome_name(std::uint64_t outcome) {
  switch (outcome) {
    case 0: return "won";
    case 1: return "demoted";
    case 2: return "aborted";
  }
  return "?";
}

const char* retry_channel_name(std::uint64_t channel) {
  switch (channel) {
    case kRetryAck: return "ack";
    case kRetryClaim: return "claim";
    case kRetryMigration: return "migration";
    case kRetryCommit: return "commit";
  }
  return "?";
}

void write_args(std::ostream& os, const SpanRecord& record) {
  os << R"(,"args":{)";
  bool first = true;
  auto field = [&](const char* key) -> std::ostream& {
    if (!first) os << ',';
    first = false;
    os << '"' << key << "\":";
    return os;
  };
  if (agent_track(record.kind)) {
    field("node") << record.node;
  } else if (record.agent != agent::AgentId{}) {
    field("agent") << '"' << json_escape(record.agent.to_string()) << '"';
  }
  switch (record.kind) {
    case SpanKind::Migration:
      field("from") << record.aux;
      if (record.aux2 != 0) field("failed") << "true";
      break;
    case SpanKind::UpdateRound:
      field("attempt") << record.aux;
      field("outcome") << '"' << outcome_name(record.aux2) << '"';
      break;
    case SpanKind::CommitFanout:
      field("mode") << (record.aux == 0 ? "\"commit\"" : "\"release\"");
      break;
    case SpanKind::LockListWait:
      field("group") << record.aux;
      break;
    case SpanKind::BatchWait:
      field("batch") << record.aux;
      break;
    case SpanKind::Retry:
      field("channel") << '"' << retry_channel_name(record.aux) << '"';
      break;
    case SpanKind::Backoff:
      field("delay_us") << record.aux;
      break;
    case SpanKind::NetDrop:
      field("msg_type") << record.aux;
      field("reason") << '"'
                      << net::drop_reason_name(
                             static_cast<net::DropReason>(record.aux2))
                      << '"';
      break;
    case SpanKind::NetRetransmit:
      field("msg_type") << record.aux;
      break;
    default:
      break;
  }
  os << '}';
}

}  // namespace

void write_chrome_trace(std::ostream& os, const Tracer& tracer,
                        const CounterRegistry* counters) {
  const std::vector<SpanRecord> records = tracer.records();

  // Stable agent → tid mapping, in order of first appearance. Servers keep
  // tid = node + 1 (Perfetto hides tid 0).
  std::map<agent::AgentId, int> agent_tids;
  std::map<net::NodeId, bool> server_seen;
  for (const SpanRecord& record : records) {
    if (agent_track(record.kind)) {
      agent_tids.emplace(record.agent, 0);
    } else {
      server_seen[record.node] = true;
    }
  }
  {
    // std::map iterates in AgentId order; re-number by first appearance so
    // the track order matches the run's chronology.
    int next = 1;
    std::map<agent::AgentId, int> ordered;
    for (const SpanRecord& record : records) {
      if (!agent_track(record.kind)) continue;
      if (ordered.emplace(record.agent, next).second) ++next;
    }
    agent_tids = std::move(ordered);
  }

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  write_metadata(os, "process_name", kServersPid, 0, "servers", first);
  write_metadata(os, "process_name", kAgentsPid, 0, "agents", first);
  for (const auto& [node, seen] : server_seen) {
    (void)seen;
    write_metadata(os, "thread_name", kServersPid, static_cast<int>(node) + 1,
                   "server " + std::to_string(node), first);
  }
  for (const auto& [agent, tid] : agent_tids) {
    write_metadata(os, "thread_name", kAgentsPid, tid, agent.to_string(), first);
  }

  for (const SpanRecord& record : records) {
    if (!first) os << ",\n";
    first = false;
    const bool on_agent = agent_track(record.kind);
    const int pid = on_agent ? kAgentsPid : kServersPid;
    const int tid = on_agent ? agent_tids.at(record.agent)
                             : static_cast<int>(record.node) + 1;
    os << R"({"name":")" << span_name(record.kind) << R"(","ph":")"
       << (instant_kind(record.kind) ? 'i' : 'X') << R"(","ts":)"
       << record.start_us << ",\"pid\":" << pid << ",\"tid\":" << tid;
    if (instant_kind(record.kind)) {
      os << R"(,"s":"t")";
    } else {
      os << ",\"dur\":" << (record.end_us - record.start_us);
    }
    write_args(os, record);
    os << '}';
  }
  os << "\n]";
  if (tracer.dropped() != 0 || counters != nullptr) {
    os << ",\"otherData\":{";
    os << "\"spans_dropped\":" << tracer.dropped();
    if (counters != nullptr) {
      os << ",\"counters\":{";
      bool first_counter = true;
      for (const auto& [name, value] : counters->entries()) {
        if (!first_counter) os << ',';
        first_counter = false;
        os << '"' << json_escape(name) << "\":" << value;
      }
      os << '}';
    }
    os << '}';
  }
  os << "}\n";
}

}  // namespace marp::trace
