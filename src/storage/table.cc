#include "storage/table.h"

#include <algorithm>
#include <bit>
#include <utility>

namespace dbrepair {

namespace {

// Folds one key value into a key hash; equal keys (Value ==) fold alike
// because Value::Hash is compatible with ==.
constexpr uint64_t kKeyHashSeed = 0x51ed270b;
uint64_t FoldKeyHash(uint64_t h, const Value& v) {
  return h * 1099511628211ULL + v.Hash();
}

// The top 32 bits of the Fibonacci-scrambled key hash.
uint32_t KeyTag(uint64_t hash) {
  return static_cast<uint32_t>((hash * 0x9e3779b97f4a7c15ULL) >> 32);
}

bool NoRowMatches(TupleView) { return false; }

}  // namespace

uint32_t Table::KeyTagOf(TupleView tuple) const {
  uint64_t h = kKeyHashSeed;
  for (const size_t pos : schema_->key_positions()) {
    h = FoldKeyHash(h, tuple.value(pos));
  }
  return KeyTag(h);
}

template <typename Matches>
size_t Table::FindSlot(uint32_t tag, Matches matches) const {
  const size_t mask = key_slots_.size() - 1;
  for (size_t slot = (uint64_t{tag} << 32) >> key_shift_;;
       slot = (slot + 1) & mask) {
    const uint64_t entry = key_slots_[slot];
    if (entry == kEmptySlot) return slot;
    if ((entry >> 32) == tag &&
        matches(row(static_cast<uint32_t>(entry)))) {
      return slot;
    }
  }
}

void Table::GrowKeyIndex() {
  const size_t capacity = std::max<size_t>(16, 2 * key_slots_.size());
  const std::vector<uint64_t> old = std::exchange(
      key_slots_, std::vector<uint64_t>(capacity, kEmptySlot));
  key_shift_ = 64 - std::countr_zero(capacity);
  for (const uint64_t entry : old) {
    if (entry == kEmptySlot) continue;
    key_slots_[FindSlot(static_cast<uint32_t>(entry >> 32), NoRowMatches)] =
        entry;
  }
}

Status Table::CheckType(size_t attribute, const Value& v) const {
  if (v.is_null()) return Status::OK();  // NULL is allowed in any column.
  const Type want = schema_->attribute(attribute).type;
  const bool ok = (want == Type::kInt64 && v.is_int()) ||
                  (want == Type::kDouble && (v.is_double() || v.is_int())) ||
                  (want == Type::kString && v.is_string());
  if (ok) return Status::OK();
  return Status::InvalidArgument(
      "type mismatch in '" + schema_->name() + "." +
      schema_->attribute(attribute).name + "': expected " + TypeName(want) +
      ", got " + v.ToString());
}

Status Table::CheckTypes(TupleView tuple) const {
  for (size_t i = 0; i < tuple.arity(); ++i) {
    DBREPAIR_RETURN_IF_ERROR(CheckType(i, tuple.value(i)));
  }
  return Status::OK();
}

Result<size_t> Table::Insert(Tuple tuple) {
  if (tuple.arity() != schema_->arity()) {
    return Status::InvalidArgument(
        "arity mismatch inserting into '" + schema_->name() + "': expected " +
        std::to_string(schema_->arity()) + " values, got " +
        std::to_string(tuple.arity()));
  }
  DBREPAIR_RETURN_IF_ERROR(CheckTypes(tuple.view()));
  if (row_count_ >= UINT32_MAX) {
    return Status::OutOfRange("too many rows in '" + schema_->name() + "'");
  }
  const uint32_t tag = KeyTagOf(tuple.view());
  size_t slot = 0;
  if (!key_slots_.empty()) {
    const auto same_key = [&](TupleView row) {
      for (const size_t pos : schema_->key_positions()) {
        if (row.value(pos) != tuple.value(pos)) return false;
      }
      return true;
    };
    slot = FindSlot(tag, same_key);
    if (key_slots_[slot] != kEmptySlot) {
      return Status::KeyViolation("duplicate primary key in '" +
                                  schema_->name() + "': " + tuple.ToString());
    }
  }
  // Grow only once the key is known to be new: a rejected insert changes
  // nothing.
  if (2 * (row_count_ + 1) > key_slots_.size()) {
    GrowKeyIndex();
    slot = FindSlot(tag, NoRowMatches);
  }
  const size_t row = row_count_;
  key_slots_[slot] = (uint64_t{tag} << 32) | row;
  std::vector<Value> values = tuple.release_values();
  cells_.insert(cells_.end(), std::make_move_iterator(values.begin()),
                std::make_move_iterator(values.end()));
  ++row_count_;
  return row;
}

Result<size_t> Table::LookupByKey(const std::vector<Value>& key) const {
  const auto& kp = schema_->key_positions();
  if (key.size() == kp.size() && !key_slots_.empty()) {
    uint64_t hash = kKeyHashSeed;
    for (const Value& v : key) hash = FoldKeyHash(hash, v);
    const auto same_key = [&](TupleView row) {
      for (size_t i = 0; i < kp.size(); ++i) {
        if (row.value(kp[i]) != key[i]) return false;
      }
      return true;
    };
    const uint64_t entry = key_slots_[FindSlot(KeyTag(hash), same_key)];
    if (entry != kEmptySlot) return static_cast<uint32_t>(entry);
  }
  return Status::NotFound("no tuple with the given key in '" +
                          schema_->name() + "'");
}

Table Table::Clone() const {
  Table copy(schema_);
  copy.cells_ = cells_;
  copy.row_count_ = row_count_;
  copy.key_slots_ = key_slots_;
  copy.key_shift_ = key_shift_;
  return copy;
}

Status Table::UpdateValue(size_t row, size_t attribute, Value v) {
  if (row >= row_count_) {
    return Status::OutOfRange("row index out of range in '" +
                              schema_->name() + "'");
  }
  if (attribute >= schema_->arity()) {
    return Status::OutOfRange("attribute index out of range in '" +
                              schema_->name() + "'");
  }
  const auto& kp = schema_->key_positions();
  if (std::find(kp.begin(), kp.end(), attribute) != kp.end()) {
    return Status::InvalidArgument(
        "cannot update key attribute '" + schema_->name() + "." +
        schema_->attribute(attribute).name + "'");
  }
  DBREPAIR_RETURN_IF_ERROR(CheckType(attribute, v));
  cells_[row * schema_->arity() + attribute] = std::move(v);
  return Status::OK();
}

}  // namespace dbrepair
