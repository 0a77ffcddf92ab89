#include "replica/versioned_store.hpp"

namespace marp::replica {

std::optional<VersionedValue> VersionedStore::read(const std::string& key) const {
  auto it = items_.find(key);
  if (it == items_.end()) return std::nullopt;
  return it->second;
}

Version VersionedStore::version_of(const std::string& key) const {
  auto it = items_.find(key);
  return it == items_.end() ? Version::none() : it->second.version;
}

bool VersionedStore::apply(const std::string& key, std::string value, Version version) {
  auto& slot = items_[key];
  if (!(version > slot.version)) return false;
  slot.value = std::move(value);
  slot.version = version;
  history_.push_back({key, version});
  if (observer_) observer_(key, slot);
  return true;
}

void VersionedStore::force(const std::string& key, std::string value, Version version) {
  auto& slot = items_[key];
  slot.value = std::move(value);
  slot.version = version;
}

bool VersionedStore::erase(const std::string& key) {
  return items_.erase(key) != 0;
}

void VersionedStore::clear_items() { items_.clear(); }

std::vector<std::string> VersionedStore::keys() const {
  std::vector<std::string> out;
  out.reserve(items_.size());
  for (const auto& [key, value] : items_) out.push_back(key);
  return out;
}

}  // namespace marp::replica
