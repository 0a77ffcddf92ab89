// Consistency auditing: checks run after every experiment.
//
// * Convergence — replicas that never failed must end with identical
//   (value, version) for every key they owe (single-copy illusion).
// * Commit-order — the protocol-level commit log must be strictly ordered
//   by version within each lock group (updates touching a group serialize:
//   the paper's order-preservation claim, per independent consensus
//   instance; with one group this is a global total order).
// * Per-key order — commits to any single key must be version-ordered no
//   matter how the keyspace is sharded (what clients actually observe).
// * Monotonicity — every replica's applied history must be per-key
//   version-monotone (the Thomas write rule actually held).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "marp/protocol.hpp"
#include "replica/versioned_store.hpp"

namespace marp::runner {

struct ConsistencyReport {
  bool ok = true;
  std::vector<std::string> problems;

  void fail(std::string problem) {
    ok = false;
    problems.push_back(std::move(problem));
  }
  void merge(const ConsistencyReport& other) {
    ok = ok && other.ok;
    problems.insert(problems.end(), other.problems.begin(), other.problems.end());
  }
};

/// `eligible[i]` marks stores whose server stayed up for the whole run.
/// Every store, eligible or not, contributes the keys audited; only the
/// eligible replicas owing a key are compared on it.
/// `owes(i, key)` answers whether replica i must hold `key` at the end:
/// under partial replication only the replicas hosting the key's group do
/// (leavers with frozen stores and spares are exempt, a joiner that never
/// finished catch-up is not). Empty means every replica owes every key.
ConsistencyReport check_convergence(
    const std::vector<const replica::VersionedStore*>& stores,
    const std::vector<bool>& eligible,
    const std::function<bool(std::size_t, const std::string&)>& owes = {});

/// Strict version order over the commit log, per lock group. With
/// `num_lock_groups` == 1 every entry lands in group 0, so this degrades to
/// the original global-total-order check.
ConsistencyReport check_commit_order(const std::vector<core::CommitRecord>& log,
                                     std::size_t num_lock_groups = 1);

/// Strict version order per key across the whole log — the client-visible
/// guarantee, independent of how keys are assigned to lock groups.
ConsistencyReport check_per_key_order(const std::vector<core::CommitRecord>& log);

ConsistencyReport check_monotonic_history(const replica::VersionedStore& store,
                                          std::size_t replica_index);

}  // namespace marp::runner
