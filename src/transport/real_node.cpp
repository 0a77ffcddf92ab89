#include "transport/real_node.hpp"

#include <algorithm>
#include <chrono>

#include "net/topology.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace marp::transport {

namespace {

/// The simulated leg of a real node only carries loopback traffic (agent →
/// local server replies); keep it fast and size-independent.
constexpr std::int64_t kLoopbackDelayUs = 50;

/// Cap on harvested (send, recv) clock-sample pairs; beyond this, alignment
/// quality stops improving and the TraceDump reply just gets fatter.
constexpr std::size_t kMaxNodeLinkSamples = 4096;

}  // namespace

std::string workload_key(const RealNodeConfig& config, net::NodeId origin,
                         std::uint64_t i) {
  const std::uint64_t k = config.keys_per_origin == 0 ? 0 : i % config.keys_per_origin;
  if (config.shared_keys) return "shared/k" + std::to_string(k);
  return "n" + std::to_string(origin) + "/k" + std::to_string(k);
}

std::string workload_value(net::NodeId origin, std::uint64_t i) {
  return "n" + std::to_string(origin) + "-s" + std::to_string(i);
}

RealNode::RealNode(RealNodeConfig config)
    : config_(std::move(config)),
      sim_(config_.seed),
      network_(sim_,
               net::make_lan_mesh(config_.endpoints.size(),
                                  sim::SimTime::micros(kLoopbackDelayUs)),
               std::make_unique<net::ConstantLatency>(
                   sim::SimTime::micros(kLoopbackDelayUs))),
      platform_(network_,
                [this] {
                  agent::PlatformConfig pc;
                  pc.migration_timeout = config_.migration_timeout;
                  return pc;
                }()),
      protocol_(network_, platform_, config_.marp) {
  MARP_REQUIRE(config_.node < config_.endpoints.size());
  // Virtual-time origin. Captured here (not at driver start) because the
  // transport's trace clock reads it as soon as frames flow, also for sends
  // made from other threads; see driver_loop for the shared-epoch rationale.
  t0_ = std::chrono::steady_clock::now();
  if (config_.clock_epoch_us > 0) {
    const auto epoch = std::chrono::steady_clock::time_point(
        std::chrono::microseconds(config_.clock_epoch_us));
    if (epoch < t0_) t0_ = epoch;
  }
  if (config_.transport_factory) {
    transport_ = config_.transport_factory(config_);
  } else {
    SocketTransportConfig tc;
    tc.local = config_.node;
    tc.peers = config_.endpoints;
    tc.checksum = config_.checksum;
    tc.incarnation = config_.incarnation;
    tc.send_loss = config_.send_loss;
    tc.loss_seed = config_.seed * 7919 + config_.node;
    tc.connect_jitter_seed = config_.seed * 6571 + config_.node;
    transport_ = std::make_unique<SocketTransport>(std::move(tc));
  }
  network_.attach_transport(transport_.get(), config_.node);
  if (config_.trace_capacity > 0) {
    // Same three-way wiring as the simulator runner: platform observer
    // (sessions + migrations), network observer (drops/retransmits), MARP
    // hooks (visits, lock waits, update rounds, commit fan-outs). Span
    // timestamps ride the virtual clock; the transport additionally stamps
    // every wire frame with this node's trace clock for cross-node
    // alignment.
    tracer_ = std::make_unique<trace::Tracer>(sim_, config_.trace_capacity);
    network_.set_observer(tracer_.get());
    platform_.set_observer(tracer_.get());
    protocol_.set_tracer(tracer_.get());
    transport_->set_trace_clock([this] { return trace_clock_now(); });
  }
  peer_incarnation_.assign(config_.endpoints.size(), 0);
  // A reborn node is catching up from the moment it exists — set this
  // before the driver thread starts, or a Status probe landing in between
  // could see recovered sessions + no agents and call the node quiesced
  // before it has announced or pulled a single peer's store.
  catching_up_ = config_.incarnation > 0;

  core::MarpServer& local = protocol_.server(config_.node);
  if (!config_.data_dir.empty()) {
    // Recover BEFORE any frame can arrive: the restored manifest goes in
    // via force() (no history entries, no observer), so nothing already
    // durable is journaled a second time.
    durable_ = std::make_unique<checkpoint::DurableLog>(config_.data_dir,
                                                        config_.node);
    recovered_ = durable_->recover();
    for (const auto& [key, value] : recovered_.manifest) {
      local.store().force(key, value.value, value.version);
      local.raise_applied_high(value.version);
    }
    sessions_completed_ = recovered_.next_session;
    local.store().set_apply_observer(
        [this](const std::string& key, const replica::VersionedValue& value) {
          durable_->append_apply(key, value);
        });
    if (recovered_.had_checkpoint || recovered_.journal_records > 0) {
      MARP_LOG_INFO("realnode")
          << "node " << config_.node << ": recovered " << recovered_.manifest.size()
          << " key(s), " << recovered_.journal_records
          << " journal record(s), epoch " << recovered_.epoch << ", resuming at session "
          << sessions_completed_;
    }
  }
  local.set_sync_listener([this](std::size_t applied) {
    ++catchup_merges_;
    (void)applied;
  });

  protocol_.set_outcome_handler([this](const replica::Outcome& outcome) {
    if (outcome.kind != replica::RequestKind::Write) return;
    const std::uint64_t session = outcome.request_id % 1'000'000;
    // Only the outcome of the session currently in flight moves the loop:
    // late REPORTs of a session a previous life (or an earlier retry)
    // already finished must not double-advance it.
    if (session != sessions_completed_) return;
    last_progress_ = sim_.now();
    if (!outcome.success) {
      ++sessions_failed_;
      ++session_retries_;
      // Aborted (update lost its race, or every quorum attempt ran out):
      // retry the same session after a beat — the workload contract is
      // "every session eventually commits".
      sim_.schedule(sim::SimTime::millis(50), [this, session] {
        if (session == sessions_completed_) submit_session(session);
      });
      return;
    }
    ++sessions_completed_;
    if (durable_) durable_->append_session_done(session);
    if (sessions_completed_ < config_.sessions) {
      submit_session(sessions_completed_);
    }
  });
}

RealNode::~RealNode() {
  request_stop();
  join();
  transport_->stop();
}

void RealNode::run() {
  transport_->open();
  driver_loop();
  if (durable_) {
    // Parting checkpoint: a clean shutdown leaves a snapshot + empty
    // journal, so the next life replays nothing.
    std::lock_guard<std::mutex> state(state_mutex_);
    checkpoint_now();
  }
  transport_->stop();
}

void RealNode::checkpoint_now() {
  if (!durable_ || durable_->pending_records() == 0) return;
  checkpoint::Manifest manifest;
  const replica::VersionedStore& store = protocol_.server(config_.node).store();
  for (const std::string& key : store.keys()) {
    if (const auto value = store.read(key)) manifest.emplace(key, *value);
  }
  if (!durable_->checkpoint(manifest, sessions_completed_)) {
    MARP_LOG_WARN("realnode") << "node " << config_.node
                              << ": checkpoint write failed (journal kept)";
  }
}

void RealNode::start() {
  MARP_REQUIRE_MSG(!thread_.joinable(), "node already started");
  thread_ = std::thread([this] { run(); });
}

void RealNode::join() {
  if (thread_.joinable()) thread_.join();
}

void RealNode::request_stop() {
  stop_requested_.store(true);
  transport_->wake();
}

void RealNode::submit_session(std::uint64_t i) {
  replica::Request request;
  request.id = static_cast<std::uint64_t>(config_.node) * 1'000'000 + i;
  request.kind = replica::RequestKind::Write;
  request.key = workload_key(config_, config_.node, i);
  request.value = workload_value(config_.node, i);
  request.origin = config_.node;
  request.submitted = sim_.now();
  ++next_request_id_;
  last_progress_ = sim_.now();
  protocol_.submit(request);
}

void RealNode::begin_workload() {
  catching_up_ = false;
  last_progress_ = sim_.now();
  if (sessions_completed_ < config_.sessions) {
    submit_session(sessions_completed_);
  }
}

void RealNode::checkpoint_tick() {
  checkpoint_now();
  sim_.schedule(config_.checkpoint_interval, [this] { checkpoint_tick(); });
}

void RealNode::watchdog_tick() {
  // A dead remote host takes the visiting agent with it; its origin would
  // otherwise wait forever for an outcome nobody will send.
  if (!catching_up_ && sessions_completed_ < config_.sessions &&
      sim_.now().as_micros() - last_progress_.as_micros() >=
          config_.session_retry_timeout.as_micros()) {
    ++session_retries_;
    MARP_LOG_WARN("realnode")
        << "node " << config_.node << ": session " << sessions_completed_
        << " stalled for " << config_.session_retry_timeout.as_micros() / 1000
        << " ms, resubmitting";
    submit_session(sessions_completed_);
  }
  sim_.schedule(
      sim::SimTime::micros(std::max<std::int64_t>(
          1, config_.session_retry_timeout.as_micros() / 2)),
      [this] { watchdog_tick(); });
}

void RealNode::driver_loop() {
  using Clock = std::chrono::steady_clock;
  // Shared virtual-clock epoch: every cluster member measures virtual time
  // from the same steady_clock instant (supervisor-chosen), so a
  // reincarnated process resumes with its clock AHEAD of where its previous
  // life stopped — commit Version timestamps keep increasing across a crash
  // and the Thomas write rule never rejects a reborn node's writes. The
  // origin t0_ is computed in the constructor (the transport's trace clock
  // shares it).
  const auto virt = [this] {
    return sim::SimTime::micros(std::chrono::duration_cast<std::chrono::microseconds>(
                                    Clock::now() - t0_)
                                    .count());
  };

  {
    std::lock_guard<std::mutex> state(state_mutex_);
    // With a shared epoch the virtual clock starts far past zero — bring
    // the sim up to date BEFORE scheduling, so delays below are relative to
    // the current virtual now rather than elapsing instantly.
    sim_.run(virt());
    last_progress_ = sim_.now();
    if (config_.incarnation > 0) catching_up_ = true;
    sim_.schedule(config_.start_delay, [this] {
      if (config_.incarnation == 0) {
        begin_workload();
        return;
      }
      // Reincarnation rejoin: raise every peer's fence floor first, then
      // pull every live peer's store, and only re-enter the workload after
      // the catch-up window — a node that missed COMMIT fan-outs while dead
      // must not write (or serve protocol traffic as current) off a stale
      // store any longer than necessary.
      for (net::NodeId peer = 0; peer < config_.endpoints.size(); ++peer) {
        if (peer != config_.node) transport_->send_announce(peer);
      }
      catchup_pulls_ +=
          protocol_.server(config_.node).sync_pull(config_.endpoints.size() - 1);
      sim_.schedule(config_.catchup_delay, [this] { begin_workload(); });
    });
    if (durable_ && config_.checkpoint_interval.as_micros() > 0) {
      sim_.schedule(config_.checkpoint_interval, [this] { checkpoint_tick(); });
    }
    if (config_.session_retry_timeout.as_micros() > 0) {
      sim_.schedule(config_.session_retry_timeout, [this] { watchdog_tick(); });
    }
  }

  std::vector<NodeTransport::Inbound> batch;
  while (!stop_requested_.load()) {
    // Sleep in the transport until the next timer is due or frames arrive.
    // Only this thread mutates the event queue, so peeking at it without
    // state_mutex_ is safe here.
    const auto wake = sim_.idle() ? Clock::now() + std::chrono::milliseconds(100)
                                  : t0_ + std::chrono::microseconds(
                                              sim_.next_event_time().as_micros());
    transport_->poll(wake, batch);
    {
      std::lock_guard<std::mutex> state(state_mutex_);
      // Catch the virtual clock up first so injected deliveries (and the
      // timers their handlers arm) are stamped with the current wall time,
      // then run whatever they made due.
      sim_.run(virt());
      for (const NodeTransport::Inbound& inbound : batch) apply(inbound);
      sim_.run(virt());
    }
    batch.clear();
  }
}

bool RealNode::admit_incarnation(const rpc::FrameHeader& header) {
  if (header.src >= peer_incarnation_.size()) return true;  // control clients
  std::uint16_t& floor = peer_incarnation_[header.src];
  if (header.incarnation < floor) {
    // A frame from a dead incarnation of this peer, delivered late (a
    // connection the kernel kept buffered past the SIGKILL, or a racing
    // retransmit). The reborn peer has already announced a higher life;
    // letting the old one speak would leak pre-crash state into the
    // post-crash cluster.
    ++stale_incarnation_rejected_;
    return false;
  }
  floor = std::max(floor, header.incarnation);
  return true;
}

void RealNode::apply(const NodeTransport::Inbound& inbound) {
  const rpc::Frame& frame = inbound.frame;
  if (tracer_ && frame.trace.has_value() && frame.recv_ts_us >= 0 &&
      frame.header.src < config_.endpoints.size()) {
    // One (send, recv) timestamp pair per traced inbound frame. recv_ts was
    // stamped as poll() cut the frame off its connection, before any
    // protocol work, so the pair measures the wire, not this node's backlog.
    if (link_samples_.size() < kMaxNodeLinkSamples) {
      link_samples_.push_back(
          {frame.header.src, frame.trace->send_ts_us, frame.recv_ts_us});
    } else {
      ++link_samples_dropped_;
    }
  }
  switch (frame.type()) {
    case rpc::FrameType::Announce: {
      try {
        const rpc::AnnounceBody announce =
            rpc::decode_announce_body(frame.body);
        if (announce.node < peer_incarnation_.size()) {
          peer_incarnation_[announce.node] =
              std::max(peer_incarnation_[announce.node], announce.incarnation);
          MARP_LOG_INFO("realnode")
              << "node " << config_.node << ": peer " << announce.node
              << " announced incarnation " << announce.incarnation;
        }
      } catch (const serial::DecodeError& e) {
        MARP_LOG_WARN("realnode")
            << "node " << config_.node << ": malformed announce: " << e.what();
      }
      return;
    }
    case rpc::FrameType::AppMessage: {
      if (!admit_incarnation(frame.header)) return;
      try {
        net::Message message =
            rpc::decode_app_body(frame.header, frame.body);
        if (message.dst != config_.node || message.src >= network_.size()) {
          MARP_LOG_WARN("realnode") << "node " << config_.node
                                    << ": misrouted frame dropped";
          return;
        }
        network_.inject(std::move(message));
      } catch (const serial::DecodeError& e) {
        MARP_LOG_WARN("realnode")
            << "node " << config_.node << ": malformed app body: " << e.what();
      }
      return;
    }
    case rpc::FrameType::AgentTransfer: {
      if (!admit_incarnation(frame.header)) return;
      try {
        const auto transfer = platform_.receive_remote_transfer(frame.body);
        // Ack even a deduped duplicate — the agent is live here either way,
        // and the sender must cancel its revival timer.
        transport_->send_agent_ack(frame.header.src, transfer.token);
      } catch (const serial::DecodeError& e) {
        // The frame passed the checksum but the body would not rehydrate —
        // drop it WITHOUT acking, so the sender's always-armed migration
        // timer revives the agent there.
        MARP_LOG_WARN("realnode")
            << "node " << config_.node << ": malformed agent frame: " << e.what();
      }
      return;
    }
    case rpc::FrameType::AgentTransferAck: {
      if (!admit_incarnation(frame.header)) return;
      try {
        platform_.acknowledge_remote_transfer(
            rpc::decode_transfer_ack_body(frame.body));
      } catch (const serial::DecodeError& e) {
        MARP_LOG_WARN("realnode")
            << "node " << config_.node << ": malformed transfer ack: " << e.what();
      }
      return;
    }
    case rpc::FrameType::ControlRequest:
      handle_control(frame, inbound.reply);
      return;
    case rpc::FrameType::ControlReply:
      return;  // nodes never originate control calls
  }
}

void RealNode::handle_control(const rpc::Frame& frame,
                              const NodeTransport::ReplyFn& reply) {
  rpc::ReqHeader req;
  try {
    serial::Reader r(frame.body);
    req = rpc::ReqHeader::deserialize(r);
  } catch (const serial::DecodeError&) {
    return;  // no xid to echo — nothing useful to reply
  }

  serial::Writer w;
  rpc::ReplyHeader reply_header;
  reply_header.xid = req.xid;
  bool shutdown = false;
  switch (static_cast<rpc::Proc>(req.proc)) {
    case rpc::Proc::Ping:
      break;
    case rpc::Proc::Status: {
      rpc::ReplyHeader h{req.xid, rpc::kOk};
      h.serialize(w);
      status_locked().serialize(w);
      if (reply) {
        reply(rpc::encode_frame(rpc::FrameType::ControlReply, config_.node,
                                frame.header.src, req.xid, w.take(),
                                config_.checksum));
      }
      return;
    }
    case rpc::Proc::Dump: {
      rpc::ReplyHeader h{req.xid, rpc::kOk};
      h.serialize(w);
      dump_locked().serialize(w);
      if (reply) {
        reply(rpc::encode_frame(rpc::FrameType::ControlReply, config_.node,
                                frame.header.src, req.xid, w.take(),
                                config_.checksum));
      }
      return;
    }
    case rpc::Proc::TraceDump: {
      rpc::ReplyHeader h{req.xid, rpc::kOk};
      h.serialize(w);
      trace_locked().serialize(w);
      if (reply) {
        reply(rpc::encode_frame(rpc::FrameType::ControlReply, config_.node,
                                frame.header.src, req.xid, w.take(),
                                config_.checksum));
      }
      return;
    }
    case rpc::Proc::Heartbeat: {
      rpc::ReplyHeader h{req.xid, rpc::kOk};
      h.serialize(w);
      rpc::HeartbeatReply beat;
      beat.incarnation = config_.incarnation;
      beat.sessions_completed = sessions_completed_;
      beat.live_agents = platform_.live_agents();
      beat.quiesced = status_locked().quiesced;
      beat.serialize(w);
      if (reply) {
        reply(rpc::encode_frame(rpc::FrameType::ControlReply, config_.node,
                                frame.header.src, req.xid, w.take(),
                                config_.checksum, config_.incarnation));
      }
      return;
    }
    case rpc::Proc::SyncPull:
      // Harness convergence barrier: pull from every live peer right now,
      // so a node that missed a gave-up COMMIT converges before final dumps
      // instead of at its leisurely periodic pull.
      catchup_pulls_ +=
          protocol_.server(config_.node).sync_pull(config_.endpoints.size() - 1);
      break;
    case rpc::Proc::Shutdown:
      shutdown = true;
      break;
    case rpc::Proc::ViewChange: {
      // The harness nominates this node as coordinator of a membership
      // epoch bump. Safe to drive the protocol directly: control frames are
      // handled on the driver thread that owns the whole stack. The propose
      // → ack → activate rounds then ride the real transport like any other
      // protocol traffic.
      bool join = false;
      net::NodeId target = net::kInvalidNode;
      bool parsed = true;
      try {
        serial::Reader args(frame.body);
        rpc::ReqHeader::deserialize(args);
        join = args.boolean();
        target = static_cast<net::NodeId>(args.varint());
      } catch (const serial::DecodeError&) {
        parsed = false;
      }
      bool accepted = false;
      if (parsed) {
        accepted = join ? protocol_.request_join(target)
                        : protocol_.request_leave(target);
      } else {
        reply_header.status = rpc::kError;
      }
      reply_header.serialize(w);
      w.boolean(accepted);
      // Installed epoch at accept time; the activation lands one higher once
      // the propose gathers its acks.
      w.varint(protocol_.server(config_.node).epoch());
      if (reply) {
        reply(rpc::encode_frame(rpc::FrameType::ControlReply, config_.node,
                                frame.header.src, req.xid, w.take(),
                                config_.checksum));
      }
      return;
    }
    default:
      reply_header.status = rpc::kBadProc;
      break;
  }
  reply_header.serialize(w);
  if (reply) {
    reply(rpc::encode_frame(rpc::FrameType::ControlReply, config_.node,
                            frame.header.src, req.xid, w.take(),
                            config_.checksum));
  }
  if (shutdown) request_stop();
}

rpc::NodeStatus RealNode::status() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return status_locked();
}

rpc::NodeDump RealNode::dump() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return dump_locked();
}

rpc::NodeStatus RealNode::status_locked() {
  rpc::NodeStatus s;
  s.sessions_target = config_.sessions;
  s.sessions_completed = sessions_completed_;
  s.commits = protocol_.stats().updates_committed;
  s.aborts = protocol_.stats().updates_aborted;
  s.live_agents = platform_.live_agents();
  s.quiesced = sessions_completed_ >= config_.sessions && s.live_agents == 0 &&
               !catching_up_;
  s.incarnation = config_.incarnation;
  s.catching_up = catching_up_;
  const core::MarpServer& local = protocol_.server(config_.node);
  s.epoch = local.epoch();
  s.retired = local.retired();
  // A joiner mid-anti-entropy is not settled even with no local workload.
  s.catching_up = s.catching_up || local.catching_up();
  s.quiesced = s.quiesced && !local.catching_up();
  return s;
}

rpc::NodeDump RealNode::dump_locked() {
  rpc::NodeDump d;
  d.status = status_locked();

  const replica::VersionedStore& store =
      protocol_.server(config_.node).store();
  for (const std::string& key : store.keys()) {
    const auto value = store.read(key);
    if (!value) continue;
    d.items.push_back({key, value->value, value->version.writer});
  }
  for (const auto& applied : store.history()) {
    d.history.push_back({applied.key, applied.version.writer});
  }

  const core::MarpStats& stats = protocol_.stats();
  d.mutex_violations = stats.mutex_violations;
  d.commit_retransmits = stats.anomalies.commit_retransmits;
  d.report_retransmits = stats.anomalies.report_retransmits;
  d.release_retransmits = stats.anomalies.release_retransmits;
  d.anomalies_total = stats.anomalies.total();

  const TransportStats ts = transport_->stats();
  d.frames_sent = ts.frames_sent;
  d.frames_received = ts.frames_received;
  d.agent_frames_sent = ts.agent_frames_sent;
  d.agent_frames_received = ts.agent_frames_received;
  d.agent_acks_sent = ts.agent_acks_sent;
  d.agent_acks_received = ts.agent_acks_received;
  d.agent_transfers_revived = platform_.stats().migrations_failed;
  d.agent_transfers_deduped = platform_.stats().remote_transfers_deduped;
  d.loss_injected = ts.loss_injected;
  d.checksum_rejected = ts.checksum_rejected;
  d.malformed_rejected = ts.malformed_rejected;
  d.send_failures = ts.send_failures;

  d.agent_transfers_pending = platform_.pending_remote_transfers();
  d.stale_incarnation_rejected = stale_incarnation_rejected_;
  d.checkpoint_epoch = durable_ ? durable_->epoch() : 0;
  d.checkpoints_written = durable_ ? durable_->checkpoints_written() : 0;
  d.journal_appends = durable_ ? durable_->journal_appends() : 0;
  d.journal_records_replayed = recovered_.journal_records;
  d.journal_tail_truncated = recovered_.journal_truncated;
  d.checkpoint_rejected = recovered_.checkpoint_rejected;
  d.catchup_pulls = catchup_pulls_;
  d.catchup_merges = catchup_merges_;
  d.session_retries = session_retries_;
  d.agents_lease_purged = stats.agents_lease_purged;
  d.counters = counters_locked().entries();
  return d;
}

rpc::NodeTrace RealNode::trace_dump() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return trace_locked();
}

trace::CounterRegistry RealNode::counters() {
  std::lock_guard<std::mutex> lock(state_mutex_);
  return counters_locked();
}

std::int64_t RealNode::trace_clock_now() const {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - t0_)
             .count() +
         config_.trace_skew_us;
}

rpc::NodeTrace RealNode::trace_locked() {
  rpc::NodeTrace t;
  t.node = config_.node;
  t.incarnation = config_.incarnation;
  t.link_samples = link_samples_;
  t.samples_dropped = link_samples_dropped_;
  if (!tracer_) return t;
  t.spans_dropped = tracer_->dropped();
  const auto flatten = [this](const trace::SpanRecord& r, std::int64_t end_us) {
    rpc::NodeTrace::Span s;
    // Span timestamps ride the virtual clock (steady_clock − t0_); shift
    // them onto the node's trace-clock axis so they are directly comparable
    // with the wire send/recv stamps the merge step aligns against.
    s.start_us = r.start_us + config_.trace_skew_us;
    s.end_us = end_us;
    s.kind = static_cast<std::uint8_t>(r.kind);
    s.node = r.node;
    s.agent_origin = r.agent.origin;
    s.agent_created_us = r.agent.created_us;
    s.agent_seq = r.agent.seq;
    s.aux = r.aux;
    s.aux2 = r.aux2;
    return s;
  };
  const std::vector<trace::SpanRecord> records = tracer_->records();
  const std::vector<trace::SpanRecord> open = tracer_->open_records();
  t.spans.reserve(records.size() + open.size());
  for (const trace::SpanRecord& r : records) {
    t.spans.push_back(flatten(r, r.end_us + config_.trace_skew_us));
  }
  for (const trace::SpanRecord& r : open) {
    t.spans.push_back(flatten(r, rpc::NodeTrace::kOpenEnd));
  }
  return t;
}

trace::CounterRegistry RealNode::counters_locked() {
  // Mirrors runner::build_counter_registry's namespaces so marp_node
  // --counters and NodeDump.counters read like marp_sim --counters, then
  // adds the real-wire extras (net.real.*, link.*, run.session_retries…).
  trace::CounterRegistry reg;
  reg.set("run.sessions_target", config_.sessions);
  reg.set("run.sessions_completed", sessions_completed_);
  reg.set("run.sessions_failed", sessions_failed_);
  reg.set("run.session_retries", session_retries_);

  const net::TrafficStats& net = network_.stats();
  reg.set("net.messages_sent", net.messages_sent);
  reg.set("net.messages_delivered", net.messages_delivered);
  reg.set("net.messages_dropped", net.messages_dropped);
  reg.set("net.bytes_sent", net.bytes_sent);

  const agent::PlatformStats& ag = platform_.stats();
  reg.set("agent.created", ag.agents_created);
  reg.set("agent.disposed", ag.agents_disposed);
  reg.set("agent.migrations_started", ag.migrations_started);
  reg.set("agent.migrations_completed", ag.migrations_completed);
  reg.set("agent.migrations_failed", ag.migrations_failed);
  reg.set("agent.migration_bytes", ag.migration_bytes);
  reg.set("agent.remote_transfers_acked", ag.remote_transfers_acked);
  reg.set("agent.remote_transfers_deduped", ag.remote_transfers_deduped);

  const core::MarpStats& marp = protocol_.stats();
  reg.set("marp.updates_committed", marp.updates_committed);
  reg.set("marp.updates_aborted", marp.updates_aborted);
  reg.set("marp.update_attempts", marp.update_attempts);
  reg.set("marp.reads_served", marp.reads_served);
  reg.set("marp.lock_requeues", marp.lock_requeues);
  reg.set("marp.mutex_violations", marp.mutex_violations);

  const core::ProtocolAnomalies& anomaly = marp.anomalies;
  reg.set("marp.anomaly.stale_acks", anomaly.stale_acks);
  reg.set("marp.anomaly.stale_updates", anomaly.stale_updates);
  reg.set("marp.anomaly.duplicate_updates", anomaly.duplicate_updates);
  reg.set("marp.anomaly.duplicate_commits", anomaly.duplicate_commits);
  reg.set("marp.anomaly.duplicate_reports", anomaly.duplicate_reports);
  reg.set("marp.anomaly.orphaned_reports", anomaly.orphaned_reports);
  reg.set("marp.anomaly.commit_retransmits", anomaly.commit_retransmits);
  reg.set("marp.anomaly.report_retransmits", anomaly.report_retransmits);
  reg.set("marp.anomaly.release_retransmits", anomaly.release_retransmits);

  const TransportStats ts = transport_->stats();
  reg.set("net.real.frames_sent", ts.frames_sent);
  reg.set("net.real.frames_received", ts.frames_received);
  reg.set("net.real.bytes_sent", ts.bytes_sent);
  reg.set("net.real.bytes_received", ts.bytes_received);
  reg.set("net.real.agent_frames_sent", ts.agent_frames_sent);
  reg.set("net.real.agent_frames_received", ts.agent_frames_received);
  reg.set("net.real.agent_acks_sent", ts.agent_acks_sent);
  reg.set("net.real.agent_acks_received", ts.agent_acks_received);
  reg.set("net.real.loss_injected", ts.loss_injected);
  reg.set("net.real.checksum_rejected", ts.checksum_rejected);
  reg.set("net.real.malformed_rejected", ts.malformed_rejected);
  reg.set("net.real.send_failures", ts.send_failures);
  reg.set("net.real.stale_incarnation_rejected", stale_incarnation_rejected_);

  reg.set("fault.checkpoints_written",
          durable_ ? durable_->checkpoints_written() : 0);
  reg.set("fault.journal_appends", durable_ ? durable_->journal_appends() : 0);
  reg.set("fault.journal_records_replayed", recovered_.journal_records);
  reg.set("fault.catchup_pulls", catchup_pulls_);
  reg.set("fault.catchup_merges", catchup_merges_);

  if (tracer_) {
    reg.set("trace.spans_recorded", tracer_->size());
    reg.set("trace.spans_dropped", tracer_->dropped());
    reg.set("trace.open_spans", tracer_->open_spans());
    reg.set("trace.unmatched_ends", tracer_->unmatched_ends());
    reg.set("trace.link_samples", link_samples_.size());
    reg.set("trace.link_samples_dropped", link_samples_dropped_);
  }

  // Per-link link.<peer>.* tallies and RTT/OWD quantiles live in the
  // transport (sampled on its threads); merge them in last.
  transport_->export_counters(reg);
  return reg;
}

}  // namespace marp::transport
