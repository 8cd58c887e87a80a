#include "types/tuple.h"

#include <ostream>

#include "common/hash.h"

namespace serena {

namespace {

constexpr std::uint64_t kHashSeed = 0x5e7e9a5e7e9a5e7eULL;

}  // namespace

Tuple Tuple::Project(const std::vector<std::size_t>& indices) const {
  std::vector<Value> projected;
  projected.reserve(indices.size());
  for (std::size_t i : indices) {
    projected.push_back(values_[i]);
  }
  return Tuple(std::move(projected));
}

Tuple Tuple::Concat(const Tuple& other) const {
  std::vector<Value> combined;
  combined.reserve(values_.size() + other.values_.size());
  combined.insert(combined.end(), values_.begin(), values_.end());
  combined.insert(combined.end(), other.values_.begin(), other.values_.end());
  return Tuple(std::move(combined));
}

std::string Tuple::ToString() const {
  std::string result = "(";
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) result += ", ";
    result += values_[i].ToString();
  }
  result += ")";
  return result;
}

bool Tuple::operator==(const Tuple& other) const {
  if (values_.size() != other.values_.size()) return false;
  for (std::size_t i = 0; i < values_.size(); ++i) {
    if (values_[i] != other.values_[i]) return false;
  }
  return true;
}

bool Tuple::operator<(const Tuple& other) const {
  const std::size_t n = std::min(values_.size(), other.values_.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (values_[i] < other.values_[i]) return true;
    if (other.values_[i] < values_[i]) return false;
  }
  return values_.size() < other.values_.size();
}

std::uint64_t Tuple::Hash() const {
  std::uint64_t h = kHashSeed;
  for (const Value& v : values_) {
    h = HashCombine(h, v.Hash());
  }
  return h;
}

std::uint64_t Tuple::ProjectedHash(
    const std::vector<std::size_t>& indices) const {
  std::uint64_t h = kHashSeed;
  for (std::size_t i : indices) {
    h = HashCombine(h, values_[i].Hash());
  }
  return h;
}

bool Tuple::ProjectedEquals(
    const std::vector<std::size_t>& indices, const Tuple& other,
    const std::vector<std::size_t>& other_indices) const {
  if (indices.size() != other_indices.size()) return false;
  for (std::size_t i = 0; i < indices.size(); ++i) {
    if (values_[indices[i]] != other.values_[other_indices[i]]) return false;
  }
  return true;
}

std::ostream& operator<<(std::ostream& os, const Tuple& tuple) {
  return os << tuple.ToString();
}

}  // namespace serena
