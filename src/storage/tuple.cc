#include "storage/tuple.h"

namespace dbrepair {

std::string TupleView::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < arity_; ++i) {
    if (i > 0) out += ", ";
    out += cells_[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace dbrepair
