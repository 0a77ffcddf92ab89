#include "trace/merge.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "agent/agent_id.hpp"
#include "trace/json.hpp"
#include "trace/tracer.hpp"

namespace marp::trace {

namespace {

constexpr std::uint8_t kMaxSpanKind =
    static_cast<std::uint8_t>(SpanKind::NetRetransmit);

/// Flattened agent identity used as a stitching key across node dumps.
struct AgentKey {
  std::uint32_t origin;
  std::int64_t created_us;
  std::uint32_t seq;
  auto operator<=>(const AgentKey&) const = default;
};

AgentKey agent_key(const rpc::NodeTrace::Span& span) {
  return {span.agent_origin, span.agent_created_us, span.agent_seq};
}

bool has_agent(const rpc::NodeTrace::Span& span) {
  return span.agent_origin != net::kInvalidNode;
}

std::string agent_name(const AgentKey& key) {
  agent::AgentId id;
  id.origin = key.origin;
  id.created_us = key.created_us;
  id.seq = key.seq;
  return id.to_string();
}

/// One already-aligned event queued for emission (two passes: the global
/// minimum timestamp is only known once everything is aligned).
struct PendingEvent {
  int pid = 0;
  int tid = 0;
  char ph = 'X';
  std::int64_t ts = 0;
  std::int64_t dur = 0;       ///< X only
  std::uint64_t flow_id = 0;  ///< s/f only
  const char* name = "";
  std::string args;  ///< rendered JSON object body, may be empty
};

std::size_t node_count(const std::vector<rpc::NodeTrace>& traces) {
  std::size_t n = 0;
  for (const rpc::NodeTrace& t : traces) {
    n = std::max<std::size_t>(n, static_cast<std::size_t>(t.node) + 1);
    for (const rpc::NodeTrace::LinkSample& s : t.link_samples) {
      n = std::max<std::size_t>(n, static_cast<std::size_t>(s.peer) + 1);
    }
  }
  return n;
}

std::vector<std::int64_t> quantile_table(std::vector<std::int64_t> sorted,
                                         std::size_t points) {
  points = std::clamp<std::size_t>(points, 2, std::max<std::size_t>(sorted.size(), 2));
  std::vector<std::int64_t> q;
  q.reserve(points);
  if (sorted.empty()) return q;
  for (std::size_t i = 0; i < points; ++i) {
    const std::size_t idx = i * (sorted.size() - 1) / (points - 1);
    q.push_back(sorted[idx]);
  }
  return q;
}

}  // namespace

MergeResult align_clocks(const std::vector<rpc::NodeTrace>& traces,
                         const MergeOptions& options) {
  MergeResult result;
  const std::size_t n = node_count(traces);
  result.offsets_us.assign(n, 0);
  result.aligned.assign(n, false);
  for (const rpc::NodeTrace& t : traces) {
    result.spans_dropped += t.spans_dropped;
    result.samples_dropped += t.samples_dropped;
  }
  if (n == 0) return result;

  // Directed (src → dst) delta sets: recv − send = θ_dst − θ_src + delay.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::vector<std::int64_t>>
      deltas;
  for (const rpc::NodeTrace& t : traces) {
    for (const rpc::NodeTrace::LinkSample& s : t.link_samples) {
      deltas[{s.peer, t.node}].push_back(s.recv_ts_us - s.send_ts_us);
    }
  }

  // Undirected edges where both directions were sampled carry a usable
  // offset estimate: (m1 − m2) / 2 cancels the (assumed symmetric) minimum
  // path delay.
  struct Edge {
    std::uint32_t peer;
    std::int64_t offset;  ///< θ_peer − θ_this
  };
  std::vector<std::vector<Edge>> graph(n);
  for (const auto& [link, forward] : deltas) {
    const auto [a, b] = link;
    if (a >= b) continue;  // one visit per unordered pair
    const auto back = deltas.find({b, a});
    if (back == deltas.end()) continue;
    const std::int64_t m1 = *std::min_element(forward.begin(), forward.end());
    const std::int64_t m2 =
        *std::min_element(back->second.begin(), back->second.end());
    const std::int64_t theta_b_minus_a = (m1 - m2) / 2;
    graph[a].push_back({b, theta_b_minus_a});
    graph[b].push_back({a, -theta_b_minus_a});
  }

  // Propagate from the reference over the sampled mesh.
  const net::NodeId ref = options.reference < n ? options.reference : 0;
  std::vector<std::uint32_t> frontier{ref};
  result.aligned[ref] = true;
  while (!frontier.empty()) {
    const std::uint32_t at = frontier.back();
    frontier.pop_back();
    for (const Edge& edge : graph[at]) {
      if (result.aligned[edge.peer]) continue;
      result.aligned[edge.peer] = true;
      result.offsets_us[edge.peer] = result.offsets_us[at] + edge.offset;
      frontier.push_back(edge.peer);
    }
  }

  // Aligned one-way delays per directed link → calibration table. Clamped
  // at 1 µs: asymmetry can push a few samples below the symmetric estimate.
  for (const auto& [link, raw] : deltas) {
    const auto [src, dst] = link;
    std::vector<std::int64_t> owd;
    owd.reserve(raw.size());
    for (const std::int64_t delta : raw) {
      owd.push_back(std::max<std::int64_t>(
          delta - (result.offsets_us[dst] - result.offsets_us[src]), 1));
    }
    std::sort(owd.begin(), owd.end());
    net::LinkCalibration cal;
    cal.src = src;
    cal.dst = dst;
    cal.count = owd.size();
    cal.quantiles_us = quantile_table(std::move(owd), options.calibration_quantiles);
    result.calibration.links.push_back(std::move(cal));
  }
  return result;
}

MergeResult write_merged_trace(std::ostream& os,
                               const std::vector<rpc::NodeTrace>& traces,
                               const MergeOptions& options) {
  MergeResult result = align_clocks(traces, options);
  const std::size_t n = result.offsets_us.size();

  const auto aligned_ts = [&](std::uint32_t node, std::int64_t ts) {
    return node < n ? ts - result.offsets_us[node] : ts;
  };

  // Stitch index: every span start per (destination node, agent), so an
  // open Migration on the source can find the agent's first appearance on
  // the destination's clock.
  std::vector<std::multimap<AgentKey, std::int64_t>> arrivals(n);
  for (const rpc::NodeTrace& t : traces) {
    if (t.node >= n) continue;
    for (const rpc::NodeTrace::Span& s : t.spans) {
      if (!has_agent(s)) continue;
      arrivals[t.node].emplace(agent_key(s), aligned_ts(t.node, s.start_us));
    }
  }

  // Per-node agent → tid table (tid 1 is the server track).
  std::vector<std::map<AgentKey, int>> agent_tids(n);
  const auto tid_for = [&](std::uint32_t node, const AgentKey& key) {
    auto [it, inserted] = agent_tids[node].emplace(
        key, static_cast<int>(agent_tids[node].size()) + 2);
    (void)inserted;
    return it->second;
  };

  std::vector<PendingEvent> events;
  std::uint64_t next_flow = 1;
  for (const rpc::NodeTrace& t : traces) {
    if (t.node >= n) continue;
    const int pid = static_cast<int>(t.node) + 1;
    for (const rpc::NodeTrace::Span& s : t.spans) {
      if (s.kind > kMaxSpanKind) continue;
      const SpanKind kind = static_cast<SpanKind>(s.kind);
      const bool open = s.end_us == rpc::NodeTrace::kOpenEnd;
      PendingEvent ev;
      ev.pid = pid;
      ev.tid = has_agent(s) ? tid_for(t.node, agent_key(s)) : 1;
      ev.name = span_name(kind);
      ev.ts = aligned_ts(t.node, s.start_us);

      std::string args = "\"node\":" + std::to_string(s.node);
      if (has_agent(s)) {
        args += ",\"agent\":\"" + json_escape(agent_name(agent_key(s))) + '"';
      }

      if (open) {
        if (kind != SpanKind::Migration || s.node >= n) {
          // LockListWait entries a remote server sweeps later, a Session
          // still touring at dump time — real, but unplottable as-is.
          ++result.open_unmatched;
          continue;
        }
        // Cross-process migration: close against the agent's first span on
        // the destination at or after departure, and draw the flow arrow.
        const auto [lo, hi] = arrivals[s.node].equal_range(agent_key(s));
        std::int64_t arrival = std::numeric_limits<std::int64_t>::max();
        for (auto it = lo; it != hi; ++it) {
          if (it->second >= ev.ts && it->second < arrival) arrival = it->second;
        }
        if (arrival == std::numeric_limits<std::int64_t>::max()) {
          ++result.open_unmatched;  // agent never surfaced on the destination
          continue;
        }
        ev.ph = 'X';
        ev.dur = arrival - ev.ts;
        args += ",\"from\":" + std::to_string(s.aux) +
                ",\"to\":" + std::to_string(s.node) + ",\"stitched\":true";
        ev.args = std::move(args);
        events.push_back(ev);
        ++result.spans_emitted;

        PendingEvent out;
        out.pid = pid;
        out.tid = ev.tid;
        out.ph = 's';
        out.ts = ev.ts;
        out.flow_id = next_flow;
        out.name = "migration";
        events.push_back(out);
        PendingEvent in;
        in.pid = static_cast<int>(s.node) + 1;
        in.tid = tid_for(s.node, agent_key(s));
        in.ph = 'f';
        in.ts = arrival;
        in.flow_id = next_flow;
        in.name = "migration";
        events.push_back(in);
        ++next_flow;
        result.flows_emitted += 2;
        continue;
      }

      if (instant_kind(kind)) {
        ev.ph = 'i';
      } else {
        ev.ph = 'X';
        ev.dur = std::max<std::int64_t>(s.end_us - s.start_us, 0);
      }
      if (kind == SpanKind::Migration) {
        args += ",\"from\":" + std::to_string(s.aux);
        if (s.aux2 != 0) args += ",\"failed\":true";
      }
      ev.args = std::move(args);
      events.push_back(ev);
      ++result.spans_emitted;
    }
  }

  // Rebase so the merged timeline starts at zero (viewers dislike the raw
  // epoch offsets; validators reject negative timestamps).
  std::int64_t min_ts = 0;
  bool first_ts = true;
  for (const PendingEvent& ev : events) {
    if (first_ts || ev.ts < min_ts) min_ts = ev.ts;
    first_ts = false;
  }

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  const auto meta = [&](const char* what, int pid, int tid, const std::string& name) {
    if (!first) os << ",\n";
    first = false;
    os << R"({"name":")" << what << R"(","ph":"M","pid":)" << pid
       << ",\"tid\":" << tid << R"(,"args":{"name":")" << json_escape(name) << "\"}}";
  };
  for (const rpc::NodeTrace& t : traces) {
    if (t.node >= n) continue;
    const int pid = static_cast<int>(t.node) + 1;
    meta("process_name", pid, 0, "node " + std::to_string(t.node));
    meta("thread_name", pid, 1, "server");
    for (const auto& [key, tid] : agent_tids[t.node]) {
      meta("thread_name", pid, tid, agent_name(key));
    }
  }

  for (const PendingEvent& ev : events) {
    if (!first) os << ",\n";
    first = false;
    os << R"({"name":")" << ev.name << R"(","ph":")" << ev.ph << R"(","ts":)"
       << (ev.ts - min_ts) << ",\"pid\":" << ev.pid << ",\"tid\":" << ev.tid;
    switch (ev.ph) {
      case 'X': os << ",\"dur\":" << ev.dur; break;
      case 'i': os << R"(,"s":"t")"; break;
      case 's':
      case 'f':
        os << ",\"cat\":\"migration\",\"id\":" << ev.flow_id;
        if (ev.ph == 'f') os << R"(,"bp":"e")";
        break;
      default: break;
    }
    if (!ev.args.empty()) os << ",\"args\":{" << ev.args << '}';
    os << '}';
  }
  os << "\n],\"otherData\":{\"clock_offsets_us\":{";
  for (std::size_t node = 0; node < n; ++node) {
    if (node != 0) os << ',';
    os << '"' << node << "\":" << result.offsets_us[node];
  }
  os << "},\"spans_dropped\":" << result.spans_dropped
     << ",\"link_samples_dropped\":" << result.samples_dropped
     << ",\"open_unmatched\":" << result.open_unmatched << "}}\n";
  return result;
}

void write_calibration_json(std::ostream& os, const net::CalibrationTable& table) {
  os << "{\n  \"version\": 1,\n  \"links\": [\n";
  for (std::size_t i = 0; i < table.links.size(); ++i) {
    const net::LinkCalibration& link = table.links[i];
    os << "    {\"src\": " << link.src << ", \"dst\": " << link.dst
       << ", \"count\": " << link.count << ", \"quantiles_us\": [";
    for (std::size_t j = 0; j < link.quantiles_us.size(); ++j) {
      if (j != 0) os << ", ";
      os << link.quantiles_us[j];
    }
    os << "]}" << (i + 1 < table.links.size() ? "," : "") << '\n';
  }
  os << "  ]\n}\n";
}

net::CalibrationTable parse_calibration_json(const std::string& text) {
  const JsonValue root = parse_json(text);
  if (!root.is_object()) throw std::runtime_error("calibration: not an object");
  const JsonValue* links = root.find("links");
  if (links == nullptr || !links->is_array()) {
    throw std::runtime_error("calibration: missing links array");
  }
  net::CalibrationTable table;
  for (const JsonValue& entry : links->array) {
    const JsonValue* src = entry.find("src");
    const JsonValue* dst = entry.find("dst");
    const JsonValue* count = entry.find("count");
    const JsonValue* quantiles = entry.find("quantiles_us");
    if (src == nullptr || !src->is_number() || dst == nullptr ||
        !dst->is_number() || quantiles == nullptr || !quantiles->is_array()) {
      throw std::runtime_error("calibration: malformed link entry");
    }
    net::LinkCalibration link;
    link.src = static_cast<net::NodeId>(src->number);
    link.dst = static_cast<net::NodeId>(dst->number);
    link.count = count != nullptr && count->is_number()
                     ? static_cast<std::uint64_t>(count->number)
                     : 0;
    for (const JsonValue& q : quantiles->array) {
      if (!q.is_number()) throw std::runtime_error("calibration: non-numeric quantile");
      link.quantiles_us.push_back(static_cast<std::int64_t>(q.number));
    }
    std::sort(link.quantiles_us.begin(), link.quantiles_us.end());
    table.links.push_back(std::move(link));
  }
  return table;
}

}  // namespace marp::trace
