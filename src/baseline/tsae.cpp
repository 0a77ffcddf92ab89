#include "baseline/tsae.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/logging.hpp"

namespace marp::baseline {

void TsaeEntry::serialize(serial::Writer& w) const {
  w.varint(origin);
  w.varint(seq);
  w.str(key);
  w.str(value);
  version.serialize(w);
}

TsaeEntry TsaeEntry::deserialize(serial::Reader& r) {
  TsaeEntry entry;
  entry.origin = static_cast<net::NodeId>(r.varint());
  entry.seq = r.varint();
  entry.key = r.str();
  entry.value = r.str();
  entry.version = replica::Version::deserialize(r);
  return entry;
}

namespace {

serial::Bytes encode_summary(const SummaryVector& summary) {
  serial::Writer w;
  w.varint(summary.size());
  for (std::uint64_t seq : summary) w.varint(seq);
  return w.take();
}

SummaryVector decode_summary(serial::Reader& r) {
  // A wire count: bounded by the bytes left (each entry is a varint of at
  // least one byte) before it sizes an allocation.
  const std::uint64_t n = r.length_prefix();
  SummaryVector summary;
  summary.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) summary.push_back(r.varint());
  return summary;
}

serial::Bytes encode_reply(const SummaryVector& summary,
                           const std::vector<TsaeEntry>& entries) {
  serial::Writer w;
  w.varint(summary.size());
  for (std::uint64_t seq : summary) w.varint(seq);
  w.seq(entries, [](serial::Writer& ww, const TsaeEntry& e) { e.serialize(ww); });
  return w.take();
}

}  // namespace

TsaeServer::TsaeServer(net::Network& network, net::NodeId node,
                       const TsaeConfig& config, TsaeProtocol& protocol)
    : replica::ServerBase(network, node),
      config_(config),
      protocol_(protocol),
      rng_(network.simulator().rng_factory().stream("tsae", node)),
      summary_(network.size(), 0) {}

void TsaeServer::start_gossip() { schedule_round(); }

void TsaeServer::schedule_round() {
  const double gap_ms =
      rng_.exponential(config_.anti_entropy_interval.as_millis());
  simulator().schedule(sim::SimTime::millis(gap_ms), [this] {
    if (up_) run_round();
    schedule_round();  // keep the schedule alive across fail/recover
  });
}

void TsaeServer::run_round() {
  if (network_.size() < 2) return;
  // Random partner (uniform over the other replicas).
  net::NodeId partner = static_cast<net::NodeId>(rng_.bounded(network_.size() - 1));
  if (partner >= node_) ++partner;
  protocol_.note_round();
  network_.send(net::Message{node_, partner, kTsaeSummary, encode_summary(summary_)});
}

std::vector<TsaeEntry> TsaeServer::entries_missing_from(
    const SummaryVector& theirs) const {
  std::vector<TsaeEntry> missing;
  for (const auto& [origin, entries] : log_) {
    const std::uint64_t have =
        origin < theirs.size() ? theirs[origin] : 0;
    for (const TsaeEntry& entry : entries) {
      if (entry.seq > have) missing.push_back(entry);
    }
  }
  return missing;
}

void TsaeServer::apply_entries(const std::vector<TsaeEntry>& entries) {
  for (const TsaeEntry& entry : entries) {
    MARP_REQUIRE(entry.origin < summary_.size());
    if (entry.seq <= summary_[entry.origin]) continue;  // duplicate
    // Log entries propagate in sequence order from each peer, so gaps do
    // not occur with reliable channels; tolerate them anyway by advancing
    // the high-water mark only on the next expected entry.
    auto& origin_log = log_[entry.origin];
    origin_log.push_back(entry);
    summary_[entry.origin] = std::max(summary_[entry.origin], entry.seq);
    if (origin_log.size() > config_.max_log_per_origin) {
      origin_log.erase(origin_log.begin());
    }
    store_.apply(entry.key, entry.value, entry.version);
  }
}

void TsaeServer::submit(const replica::Request& request) {
  if (!up_) return;
  simulator().schedule(config_.local_op_time, [this, request] {
    if (!up_) return;
    replica::Outcome outcome;
    outcome.request_id = request.id;
    outcome.kind = request.kind;
    outcome.origin = node_;
    outcome.submitted = request.submitted;
    outcome.dispatched = request.submitted;
    outcome.lock_obtained = now();
    outcome.completed = now();
    outcome.success = true;
    if (request.kind == replica::RequestKind::Read) {
      if (auto value = store_.read(request.key)) {
        outcome.value = value->value;
        outcome.read_version = value->version;
      }
    } else {
      // Local commit: apply, log, ack — gossip does the rest.
      TsaeEntry entry;
      entry.origin = node_;
      entry.seq = ++next_seq_;
      entry.key = request.key;
      entry.value = request.value;
      entry.version = replica::Version{now().as_micros(), node_};
      log_[node_].push_back(entry);
      summary_[node_] = entry.seq;
      store_.apply(entry.key, entry.value, entry.version);
    }
    report(outcome);
  });
}

void TsaeServer::handle_message(const net::Message& message) {
  if (!up_) return;
  serial::Reader r(message.payload);
  switch (message.type) {
    case kTsaeSummary: {
      // Partner side of a round: send what they lack plus our own summary
      // so they can push back what we lack (push-pull).
      const SummaryVector theirs = decode_summary(r);
      network_.send(net::Message{node_, message.src, kTsaeReply,
                                 encode_reply(summary_, entries_missing_from(theirs))});
      break;
    }
    case kTsaeReply: {
      const SummaryVector theirs = decode_summary(r);
      const auto entries =
          r.seq<TsaeEntry>([](serial::Reader& rr) { return TsaeEntry::deserialize(rr); });
      apply_entries(entries);
      const auto push = entries_missing_from(theirs);
      if (!push.empty()) {
        serial::Writer w;
        w.seq(push, [](serial::Writer& ww, const TsaeEntry& e) { e.serialize(ww); });
        network_.send(net::Message{node_, message.src, kTsaePush, w.take()});
      }
      break;
    }
    case kTsaePush: {
      const auto entries =
          r.seq<TsaeEntry>([](serial::Reader& rr) { return TsaeEntry::deserialize(rr); });
      apply_entries(entries);
      break;
    }
    default:
      MARP_LOG_WARN("tsae") << "unexpected message type " << message.type;
  }
}

void TsaeServer::on_fail() {
  // Volatile gossip state survives in our model only via the durable store;
  // the log and summary are rebuilt as empty (peers re-send everything,
  // duplicates are version-filtered by the store).
  log_.clear();
  std::fill(summary_.begin(), summary_.end(), 0);
}

TsaeProtocol::TsaeProtocol(net::Network& network, TsaeConfig config)
    : network_(network), config_(config) {
  servers_.reserve(network_.size());
  for (net::NodeId node = 0; node < network_.size(); ++node) {
    servers_.push_back(std::make_unique<TsaeServer>(network_, node, config_, *this));
    TsaeServer* server = servers_.back().get();
    network_.register_node(
        node, [server](const net::Message& message) { server->handle_message(message); });
    server->start_gossip();
  }
}

TsaeServer& TsaeProtocol::server(net::NodeId node) {
  MARP_REQUIRE(node < servers_.size());
  return *servers_[node];
}

void TsaeProtocol::submit(const replica::Request& request) {
  server(request.origin).submit(request);
}

void TsaeProtocol::set_outcome_handler(replica::OutcomeHandler handler) {
  for (auto& server : servers_) server->set_outcome_handler(handler);
}

void TsaeProtocol::fail_server(net::NodeId node) { server(node).fail(); }

void TsaeProtocol::recover_server(net::NodeId node) { server(node).recover(); }

}  // namespace marp::baseline
