#include "replica/locking.hpp"

namespace marp::replica {

bool LockingList::append(const agent::AgentId& agent, sim::SimTime now) {
  if (contains(agent)) return false;
  entries_.push_back({agent, now});
  return true;
}

bool LockingList::remove(const agent::AgentId& agent) {
  auto it = std::find_if(entries_.begin(), entries_.end(),
                         [&](const Entry& e) { return e.agent == agent; });
  if (it == entries_.end()) return false;
  entries_.erase(it);
  return true;
}

std::optional<agent::AgentId> LockingList::head() const {
  if (entries_.empty()) return std::nullopt;
  return entries_.front().agent;
}

std::optional<std::size_t> LockingList::position(const agent::AgentId& agent) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    if (entries_[i].agent == agent) return i;
  }
  return std::nullopt;
}

std::vector<agent::AgentId> LockingList::snapshot() const {
  std::vector<agent::AgentId> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.agent);
  return out;
}

void LockingList::serialize(serial::Writer& w) const {
  w.varint(entries_.size());
  for (const Entry& e : entries_) {
    e.agent.serialize(w);
    w.svarint(e.enqueued.as_micros());
  }
}

LockingList LockingList::deserialize(serial::Reader& r) {
  LockingList list;
  const std::uint64_t n = r.varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    agent::AgentId id = agent::AgentId::deserialize(r);
    sim::SimTime t = sim::SimTime::micros(r.svarint());
    list.entries_.push_back({id, t});
  }
  return list;
}

void UpdatedList::add(const agent::AgentId& agent) {
  if (capacity_ == 0 || contains(agent)) return;
  // Evict before inserting, so the ascending view never outgrows capacity.
  if (completed_.size() == capacity_) {
    ascending_.erase(completed_.front());
    completed_.pop_front();
  }
  ascending_.insert(agent);
  completed_.push_back(agent);
}

void UpdatedList::merge(const std::vector<agent::AgentId>& other) {
  for (const auto& id : other) add(id);
}

}  // namespace marp::replica
