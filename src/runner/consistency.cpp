#include "runner/consistency.hpp"

#include <map>
#include <sstream>

#include "util/assert.hpp"

namespace marp::runner {

ConsistencyReport check_convergence(
    const std::vector<const replica::VersionedStore*>& stores,
    const std::vector<bool>& eligible,
    const std::function<bool(std::size_t, const std::string&)>& owes) {
  MARP_REQUIRE(stores.size() == eligible.size());
  ConsistencyReport report;

  // Union of keys across every store, eligible, owing or not — a key held
  // only by a writer that committed it and then crashed must still reach
  // every replica owing it.
  std::map<std::string, bool> keys;
  for (const replica::VersionedStore* store : stores) {
    for (const auto& key : store->keys()) keys[key] = true;
  }

  for (const auto& [key, unused] : keys) {
    (void)unused;
    bool have_reference = false;
    replica::VersionedValue reference;
    std::size_t reference_index = 0;
    for (std::size_t i = 0; i < stores.size(); ++i) {
      if (!eligible[i] || (owes && !owes(i, key))) continue;
      const auto value = stores[i]->read(key);
      if (!value) {
        std::ostringstream os;
        os << "replica " << i << " is missing key '" << key << '\'';
        report.fail(os.str());
        continue;
      }
      if (!have_reference) {
        reference = *value;
        reference_index = i;
        have_reference = true;
        continue;
      }
      if (value->version != reference.version || value->value != reference.value) {
        std::ostringstream os;
        os << "key '" << key << "' diverged: replica " << reference_index
           << " has version (" << reference.version.time_us << ','
           << reference.version.writer << ") but replica " << i
           << " has version (" << value->version.time_us << ','
           << value->version.writer << ')';
        report.fail(os.str());
      }
    }
  }
  return report;
}

ConsistencyReport check_commit_order(const std::vector<core::CommitRecord>& log,
                                     std::size_t num_lock_groups) {
  ConsistencyReport report;
  std::map<shard::GroupId, replica::Version> previous;
  for (std::size_t i = 0; i < log.size(); ++i) {
    for (const core::CommitEntry& entry : log[i].entries) {
      if (entry.group >= num_lock_groups) {
        std::ostringstream os;
        os << "commit log entry " << i << " routed key '" << entry.key
           << "' to group " << entry.group << " but only " << num_lock_groups
           << " lock groups exist";
        report.fail(os.str());
      }
      auto [it, inserted] =
          previous.try_emplace(entry.group, replica::Version::none());
      if (!inserted && !(entry.version > it->second)) {
        std::ostringstream os;
        os << "commit log entry " << i << " (" << log[i].agent.to_string()
           << "), group " << entry.group << ", has version ("
           << entry.version.time_us << ',' << entry.version.writer
           << ") not after the group's predecessor (" << it->second.time_us
           << ',' << it->second.writer << ')';
        report.fail(os.str());
      }
      it->second = entry.version;
    }
  }
  return report;
}

ConsistencyReport check_per_key_order(const std::vector<core::CommitRecord>& log) {
  ConsistencyReport report;
  std::map<std::string, replica::Version> previous;
  for (std::size_t i = 0; i < log.size(); ++i) {
    for (const core::CommitEntry& entry : log[i].entries) {
      auto it = previous.find(entry.key);
      if (it != previous.end() && !(entry.version > it->second)) {
        std::ostringstream os;
        os << "commit log entry " << i << " (" << log[i].agent.to_string()
           << ") writes key '" << entry.key << "' with version ("
           << entry.version.time_us << ',' << entry.version.writer
           << ") not after the key's predecessor (" << it->second.time_us
           << ',' << it->second.writer << ')';
        report.fail(os.str());
      }
      previous[entry.key] = entry.version;
    }
  }
  return report;
}

ConsistencyReport check_monotonic_history(const replica::VersionedStore& store,
                                          std::size_t replica_index) {
  ConsistencyReport report;
  std::map<std::string, replica::Version> last;
  const auto& history = store.history();
  for (std::size_t i = 0; i < history.size(); ++i) {
    const auto& record = history[i];
    auto it = last.find(record.key);
    if (it != last.end() && !(record.version > it->second)) {
      std::ostringstream os;
      os << "replica " << replica_index << " applied key '" << record.key
         << "' out of version order at history index " << i;
      report.fail(os.str());
    }
    last[record.key] = record.version;
  }
  return report;
}

}  // namespace marp::runner
