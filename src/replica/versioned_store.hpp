// Versioned key-value store held by each replica.
//
// Versions are (timestamp, writer-server) pairs ordered lexicographically;
// writes are applied per the Thomas write rule (newer version wins, ties by
// server id), which is what lets the MARP winner "check the time of last
// update of all the quorum members and use the most recent copy" (§3.1).
// The store optionally records its apply history so the consistency checker
// can verify order preservation across replicas.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "serial/byte_buffer.hpp"
#include "sim/time.hpp"

namespace marp::replica {

struct Version {
  std::int64_t time_us = -1;  ///< -1 = "never written"
  std::uint32_t writer = 0;   ///< server that coordinated the write

  friend constexpr auto operator<=>(const Version&, const Version&) noexcept = default;

  static constexpr Version none() noexcept { return Version{}; }

  void serialize(serial::Writer& w) const {
    w.svarint(time_us);
    w.varint(writer);
  }
  static Version deserialize(serial::Reader& r) {
    Version v;
    v.time_us = r.svarint();
    v.writer = static_cast<std::uint32_t>(r.varint());
    return v;
  }
};

struct VersionedValue {
  std::string value;
  Version version;
};

/// One replica's copy of the replicated data.
class VersionedStore {
 public:
  /// Read the local copy (the paper's fast read path). Empty optional if the
  /// key has never been written here.
  std::optional<VersionedValue> read(const std::string& key) const;

  /// Version of a key; Version::none() if absent.
  Version version_of(const std::string& key) const;

  /// Thomas write rule: apply iff `version` is newer than the local one.
  /// Returns true if the write was applied.
  bool apply(const std::string& key, std::string value, Version version);

  /// Unconditional overwrite (state transfer during recovery).
  void force(const std::string& key, std::string value, Version version);

  /// Remove a key entirely (rollback of a key created after a checkpoint).
  bool erase(const std::string& key);

  /// Drop every item (precedes a full restore). History is kept.
  void clear_items();

  std::size_t size() const noexcept { return items_.size(); }
  std::vector<std::string> keys() const;

  /// Every (key, version) this replica applied, in apply order — consumed by
  /// the order-preservation checker.
  struct AppliedRecord {
    std::string key;
    Version version;
  };
  const std::vector<AppliedRecord>& history() const noexcept { return history_; }

  /// Fired after every successful apply() with the stored value — the hook a
  /// real node uses to journal committed writes to disk. Not fired by
  /// force()/erase(): recovery restores state that is already durable, and
  /// journaling it again would double every record on the next replay.
  using ApplyObserver =
      std::function<void(const std::string& key, const VersionedValue& value)>;
  void set_apply_observer(ApplyObserver observer) { observer_ = std::move(observer); }

 private:
  std::map<std::string, VersionedValue> items_;
  std::vector<AppliedRecord> history_;
  ApplyObserver observer_;
};

}  // namespace marp::replica
