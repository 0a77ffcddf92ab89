// A set of agent ids held as one sorted, unique vector.
//
// It carries the update agent's Updated Agents List (UAL, §3.2) and the
// ascending view of a server's Updated List. Both are read far more often
// than they change: every visit merges a server's list into the agent's,
// every priority decision asks whether an agent has finished, and every
// migration writes the list out and reads it back. A sorted vector makes
// the merge one linear pass, the lookup a binary search, and the rehydrate
// a straight read of the already-ascending wire run. Like a std::set, it
// iterates in ascending id order.
#pragma once

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <utility>
#include <vector>

#include "agent/agent_id.hpp"
#include "serial/byte_buffer.hpp"

namespace marp::agent {

class AgentIdSet {
 public:
  using const_iterator = std::vector<AgentId>::const_iterator;

  AgentIdSet() = default;
  AgentIdSet(std::initializer_list<AgentId> ids) : AgentIdSet(std::vector<AgentId>(ids)) {}
  /// Bulk build from ids in any order, duplicates allowed: one sort instead
  /// of one middle insertion per id.
  explicit AgentIdSet(std::vector<AgentId> ids) : ids_(std::move(ids)) { normalize(); }

  bool contains(const AgentId& id) const {
    return std::binary_search(ids_.begin(), ids_.end(), id);
  }
  std::size_t size() const noexcept { return ids_.size(); }
  bool empty() const noexcept { return ids_.empty(); }
  const_iterator begin() const noexcept { return ids_.begin(); }
  const_iterator end() const noexcept { return ids_.end(); }

  /// Add one id; false if it was already present. Linear in the set's size.
  bool insert(const AgentId& id) {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    if (it != ids_.end() && *it == id) return false;
    ids_.insert(it, id);
    return true;
  }

  /// Remove one id; false if it was absent.
  bool erase(const AgentId& id) {
    const auto it = std::lower_bound(ids_.begin(), ids_.end(), id);
    if (it == ids_.end() || *it != id) return false;
    ids_.erase(it);
    return true;
  }

  /// Union with `other` in one linear pass. The new ids are counted first,
  /// so a merge that brings none allocates nothing, and one that does
  /// allocates exactly the room the union needs.
  void merge(const AgentIdSet& other) {
    std::size_t fresh = 0;
    auto mine = ids_.begin();
    for (const AgentId& id : other.ids_) {
      while (mine != ids_.end() && *mine < id) ++mine;
      if (mine == ids_.end() || id < *mine) ++fresh;
    }
    if (fresh == 0) return;
    std::vector<AgentId> merged;
    merged.reserve(ids_.size() + fresh);
    std::set_union(ids_.begin(), ids_.end(), other.ids_.begin(), other.ids_.end(),
                   std::back_inserter(merged));
    ids_ = std::move(merged);
  }

  friend bool operator==(const AgentIdSet&, const AgentIdSet&) = default;

  /// Wire form: a varint count, then the ids ascending and unique.
  void serialize(serial::Writer& w) const {
    w.varint(ids_.size());
    for (const AgentId& id : ids_) id.serialize(w);
  }

  /// Decodes any run to the set its ids form, as inserting them one by one
  /// would: the bytes may be outside input, so an out-of-order or repeated
  /// run is sorted and deduplicated rather than trusted. A count larger
  /// than the bytes left could hold throws serial::DecodeError.
  static AgentIdSet deserialize(serial::Reader& r) {
    // Three varints make an id, so each takes at least three bytes.
    const std::uint64_t n = r.length_prefix(3);
    AgentIdSet set;
    set.ids_.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) set.ids_.push_back(AgentId::deserialize(r));
    set.normalize();
    return set;
  }

 private:
  void normalize() {
    const auto out_of_order = std::adjacent_find(
        ids_.begin(), ids_.end(),
        [](const AgentId& a, const AgentId& b) { return !(a < b); });
    if (out_of_order == ids_.end()) return;  // already strictly ascending
    std::sort(ids_.begin(), ids_.end());
    ids_.erase(std::unique(ids_.begin(), ids_.end()), ids_.end());
  }

  std::vector<AgentId> ids_;
};

}  // namespace marp::agent
