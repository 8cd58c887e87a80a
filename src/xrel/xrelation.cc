#include "xrel/xrelation.h"

#include <algorithm>
#include <cassert>
#include <sstream>

#include "common/logging.h"

namespace serena {

XRelation::XRelation(ExtendedSchemaPtr schema) : schema_(std::move(schema)) {
  SERENA_CHECK(schema_ != nullptr);
}

Result<bool> XRelation::Insert(Tuple tuple) {
  SERENA_RETURN_NOT_OK(schema_->ValidateTuple(tuple));
  return InsertUnchecked(std::move(tuple));
}

bool XRelation::InsertUnchecked(Tuple tuple) {
  const std::uint64_t hash = tuple.Hash();
  return InsertHashed(std::move(tuple), hash);
}

bool XRelation::InsertHashed(Tuple tuple, std::uint64_t hash) {
  assert(hash == tuple.Hash());
  if (!index_.Insert(tuple, hash, tuples_.size(), TupleAt())) return false;
  tuples_.push_back(std::move(tuple));
  return true;
}

void XRelation::Reserve(std::size_t n) {
  tuples_.reserve(n);
  index_.Reserve(n);
}

bool XRelation::Erase(const Tuple& tuple) {
  const std::size_t victim = index_.Erase(tuple, tuple.Hash(), TupleAt());
  if (victim == FlatTupleIndex::kNotFound) return false;
  const std::size_t last = tuples_.size() - 1;
  if (victim != last) {
    // Move the last tuple into the hole and repoint its index entry.
    index_.Relocate(tuples_[last].Hash(), last, victim);
    tuples_[victim] = std::move(tuples_[last]);
  }
  tuples_.pop_back();
  return true;
}

bool XRelation::Contains(const Tuple& tuple) const {
  return index_.Find(tuple, tuple.Hash(), TupleAt()) !=
         FlatTupleIndex::kNotFound;
}

void XRelation::Clear() {
  tuples_.clear();
  index_.Clear();
}

void XRelation::Reindex() {
  index_.Clear();
  for (std::size_t i = 0; i < tuples_.size(); ++i) {
    const bool distinct =
        index_.Insert(tuples_[i], tuples_[i].Hash(), i, TupleAt());
    assert(distinct && "rows rewritten in place collided");
    (void)distinct;
  }
}

Result<Value> XRelation::ProjectValue(const Tuple& tuple,
                                      std::string_view attribute) const {
  const auto coord = schema_->CoordinateOf(attribute);
  if (!coord.has_value()) {
    return Status::InvalidArgument("cannot project tuple onto '",
                                   std::string(attribute),
                                   "': virtual or missing attribute");
  }
  if (*coord >= tuple.size()) {
    return Status::OutOfRange("tuple too short for coordinate ", *coord);
  }
  return tuple[*coord];
}

std::vector<Tuple> XRelation::Sorted() const {
  std::vector<Tuple> sorted = tuples_;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

bool XRelation::SetEquals(const XRelation& other) const {
  if (!schema_->SameAttributes(other.schema())) return false;
  if (size() != other.size()) return false;
  for (const Tuple& t : tuples_) {
    if (!other.Contains(t)) return false;
  }
  return true;
}

std::string XRelation::ToTableString() const {
  std::ostringstream os;
  const auto& attrs = schema_->attributes();
  // Compute column widths from header and data.
  std::vector<std::size_t> widths(attrs.size());
  std::vector<std::vector<std::string>> rows;
  for (std::size_t i = 0; i < attrs.size(); ++i) {
    widths[i] = attrs[i].name.size();
  }
  for (const Tuple& t : Sorted()) {
    std::vector<std::string> row;
    row.reserve(attrs.size());
    for (std::size_t i = 0; i < attrs.size(); ++i) {
      std::string cell;
      if (attrs[i].is_virtual()) {
        cell = "*";
      } else {
        const auto coord = schema_->CoordinateOf(attrs[i].name);
        cell = t[*coord].ToString();
      }
      widths[i] = std::max(widths[i], cell.size());
      row.push_back(std::move(cell));
    }
    rows.push_back(std::move(row));
  }
  auto emit_row = [&](const std::vector<std::string>& cells) {
    os << "|";
    for (std::size_t i = 0; i < cells.size(); ++i) {
      os << ' ' << cells[i] << std::string(widths[i] - cells[i].size(), ' ')
         << " |";
    }
    os << '\n';
  };
  std::vector<std::string> header;
  header.reserve(attrs.size());
  for (const Attribute& attr : attrs) header.push_back(attr.name);
  emit_row(header);
  os << "|";
  for (std::size_t w : widths) os << std::string(w + 2, '-') << "|";
  os << '\n';
  for (const auto& row : rows) emit_row(row);
  return os.str();
}

}  // namespace serena
