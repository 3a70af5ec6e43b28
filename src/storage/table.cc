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

bool NoRowMatches(uint32_t) { return false; }

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
  for (size_t slot = HomeSlot(tag);; slot = (slot + 1) & mask) {
    const uint64_t entry = key_slots_[slot];
    if (entry == kEmptySlot) return slot;
    if ((entry >> 32) == tag && matches(static_cast<uint32_t>(entry))) {
      return slot;
    }
  }
}

Result<size_t> Table::FreeKeySlot(TupleView tuple, uint32_t tag) const {
  const auto same_key = [&](uint32_t id) {
    const TupleView other = row(id);
    for (const size_t pos : schema_->key_positions()) {
      if (other.value(pos) != tuple.value(pos)) return false;
    }
    return true;
  };
  const size_t slot = FindSlot(tag, same_key);
  if (key_slots_[slot] != kEmptySlot) {
    return Status::KeyViolation("duplicate primary key in '" +
                                schema_->name() + "': " + tuple.ToString());
  }
  return slot;
}

// Makes the slot array hold `rows` keys at load <= 1/2, doubling it (16
// slots at first) as often as that takes and re-slotting every row.
void Table::ReserveKeys(size_t rows) {
  size_t capacity = key_slots_.size();
  if (2 * rows <= capacity) return;
  while (2 * rows > capacity) capacity = std::max<size_t>(16, 2 * capacity);
  RebuildKeyIndex(capacity, row_count_);
}

void Table::RebuildKeyIndex(size_t capacity, size_t keep_rows) {
  const std::vector<uint64_t> old = std::exchange(
      key_slots_, std::vector<uint64_t>(capacity, kEmptySlot));
  key_shift_ = 64 - std::countr_zero(capacity);
  for (const uint64_t entry : old) {
    if (entry == kEmptySlot || static_cast<uint32_t>(entry) >= keep_rows) {
      continue;
    }
    key_slots_[FindSlot(static_cast<uint32_t>(entry >> 32), NoRowMatches)] =
        entry;
  }
  reslotted_rows_ = keep_rows;
}

bool Table::Fits(size_t attribute, const Value& v) const {
  if (v.is_null()) return true;  // NULL is allowed in any column.
  switch (schema_->attribute(attribute).type) {
    case Type::kInt64:
      return v.is_int();
    case Type::kDouble:
      return v.is_double() || v.is_int();
    case Type::kString:
      return v.is_string();
  }
  return false;
}

Status Table::CheckType(size_t attribute, const Value& v) const {
  if (Fits(attribute, v)) return Status::OK();
  const Type want = schema_->attribute(attribute).type;
  return Status::InvalidArgument(
      "type mismatch in '" + schema_->name() + "." +
      schema_->attribute(attribute).name + "': expected " + TypeName(want) +
      ", got " + v.ToString());
}

Status Table::CheckTypes(TupleView tuple) const {
  for (size_t i = 0; i < tuple.arity(); ++i) {
    if (!Fits(i, tuple.value(i))) return CheckType(i, tuple.value(i));
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
    DBREPAIR_ASSIGN_OR_RETURN(slot, FreeKeySlot(tuple.view(), tag));
  }
  // Grow only once the key is known to be new: a rejected insert changes
  // nothing.
  if (2 * (row_count_ + 1) > key_slots_.size()) {
    ReserveKeys(row_count_ + 1);
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

Status Table::AppendRows(std::span<Value> cells) {
  const size_t arity = schema_->arity();
  if (cells.size() % arity != 0) {
    return Status::InvalidArgument(
        "arity mismatch appending to '" + schema_->name() + "': " +
        std::to_string(cells.size()) + " cells is not a multiple of " +
        std::to_string(arity));
  }
  const size_t count = cells.size() / arity;
  if (count > UINT32_MAX - row_count_) {
    return Status::OutOfRange("too many rows in '" + schema_->name() + "'");
  }
  for (size_t r = 0; r < count; ++r) {
    DBREPAIR_RETURN_IF_ERROR(CheckTypes({cells.data() + r * arity, arity}));
  }
  // Grow once for the whole chunk, before any new key is slotted, so the
  // slots below are filled in row order and a rollback can empty them in
  // reverse.
  ReserveKeys(row_count_ + count);
  const size_t first = row_count_;
  cells_.insert(cells_.end(), std::make_move_iterator(cells.begin()),
                std::make_move_iterator(cells.end()));
  row_count_ += count;
  // The key pass: hash every new key, then slot them in row order with the
  // home slot of a key a few rows ahead already on its way into cache. The
  // per-row Insert path parses and allocates between probes, so each miss
  // stalls it; here nothing runs between probes and their misses overlap.
  constexpr size_t kPrefetchAhead = 8;
  std::vector<uint32_t> tags(count);
  for (size_t i = 0; i < count; ++i) tags[i] = KeyTagOf(row(first + i));
  for (size_t i = 0; i < count; ++i) {
    if (i + kPrefetchAhead < count) {
      __builtin_prefetch(&key_slots_[HomeSlot(tags[i + kPrefetchAhead])]);
    }
    const Result<size_t> slot = FreeKeySlot(row(first + i), tags[i]);
    if (!slot.ok()) {
      Truncate(first);
      return slot.status();
    }
    key_slots_[*slot] = (uint64_t{tags[i]} << 32) | (first + i);
  }
  return Status::OK();
}

void Table::Truncate(size_t rows) {
  if (rows >= row_count_) return;
  if (rows >= reslotted_rows_) {
    // A row that was never slotted (AppendRows stopped before it) finds an
    // empty slot here, and emptying it again is harmless.
    for (size_t r = row_count_; r-- > rows;) {
      const auto is_r = [r](uint32_t id) { return id == r; };
      key_slots_[FindSlot(KeyTagOf(row(r)), is_r)] = kEmptySlot;
    }
  } else {
    RebuildKeyIndex(key_slots_.size(), rows);
  }
  cells_.erase(cells_.begin() + rows * schema_->arity(), cells_.end());
  row_count_ = rows;
}

Result<size_t> Table::LookupByKey(const std::vector<Value>& key) const {
  const auto& kp = schema_->key_positions();
  if (key.size() == kp.size() && !key_slots_.empty()) {
    uint64_t hash = kKeyHashSeed;
    for (const Value& v : key) hash = FoldKeyHash(hash, v);
    const auto same_key = [&](uint32_t id) {
      const TupleView other = row(id);
      for (size_t i = 0; i < kp.size(); ++i) {
        if (other.value(kp[i]) != key[i]) return false;
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
  copy.reslotted_rows_ = reslotted_rows_;
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
