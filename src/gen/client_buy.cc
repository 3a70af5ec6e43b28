#include "gen/client_buy.h"

#include "common/rng.h"
#include "constraints/parser.h"

namespace dbrepair {

std::shared_ptr<const Schema> MakeClientBuySchema() {
  auto schema = std::make_shared<Schema>();
  {
    std::vector<AttributeDef> attrs;
    attrs.push_back(AttributeDef{"ID", Type::kInt64, false, 1.0});
    attrs.push_back(AttributeDef{"A", Type::kInt64, true, 1.0});
    attrs.push_back(AttributeDef{"C", Type::kInt64, true, 1.0});
    Status st = schema->AddRelation(
        RelationSchema("Client", std::move(attrs), {"ID"}));
    (void)st;
  }
  {
    std::vector<AttributeDef> attrs;
    attrs.push_back(AttributeDef{"ID", Type::kInt64, false, 1.0});
    attrs.push_back(AttributeDef{"I", Type::kInt64, false, 1.0});
    attrs.push_back(AttributeDef{"P", Type::kInt64, true, 1.0});
    Status st = schema->AddRelation(
        RelationSchema("Buy", std::move(attrs), {"ID", "I"}));
    (void)st;
  }
  return schema;
}

std::vector<DenialConstraint> MakeClientBuyConstraints() {
  const char* text =
      "ic1: :- Buy(id, i, p), Client(id, a, c), a < 18, p > 25\n"
      "ic2: :- Client(id, a, c), a < 18, c > 50\n";
  auto parsed = ParseConstraintSet(text);
  return std::move(parsed).value();
}

Result<GeneratedWorkload> GenerateClientBuy(const ClientBuyOptions& options) {
  Rng rng(options.seed);
  Database db(MakeClientBuySchema());

  // Rows go to Table::AppendRows in chunks, so each table's key index is
  // allocated once (ReserveKeys) and a chunk's keys are slotted in one pass,
  // instead of re-slotting every row at each doubling as per-row Inserts
  // would. Exact for Client; for Buy an upper bound (hotspot clients take
  // hotspot_buys in place of buys_per_client).
  Table* clients = db.FindMutableTable("Client");
  Table* buys_table = db.FindMutableTable("Buy");
  const size_t max_buys = options.num_clients * options.buys_per_client +
                          options.hotspot_clients * options.hotspot_buys;
  clients->Reserve(options.num_clients);
  clients->ReserveKeys(options.num_clients);
  buys_table->Reserve(max_buys);
  buys_table->ReserveKeys(max_buys);
  constexpr size_t kChunkRows = 4096;
  constexpr size_t kArity = 3;  // both relations
  std::vector<Value> client_cells;
  std::vector<Value> buy_cells;
  client_cells.reserve(kChunkRows * kArity);
  buy_cells.reserve(kChunkRows * kArity);
  // Appends the buffered rows to `table` once `cells` holds a full chunk,
  // or whatever it holds when `last`.
  const auto flush = [](Table* table, std::vector<Value>& cells,
                        bool last) -> Status {
    if (cells.size() < kChunkRows * kArity && !last) return Status::OK();
    Status status = table->AppendRows(cells);
    cells.clear();
    return status;
  };

  size_t hotspots_left = options.hotspot_clients;
  for (size_t c = 0; c < options.num_clients; ++c) {
    const auto id = static_cast<int64_t>(c + 1);
    const bool inconsistent = rng.Bernoulli(options.inconsistency_ratio);

    int64_t age;
    int64_t credit;
    if (inconsistent) {
      age = rng.UniformInRange(10, 17);  // a minor
      credit = rng.Bernoulli(options.credit_violation_ratio)
                   ? rng.UniformInRange(51, 100)  // violates ic2
                   : rng.UniformInRange(0, 50);
    } else {
      age = rng.UniformInRange(18, 80);
      credit = rng.UniformInRange(0, 100);
    }
    client_cells.insert(client_cells.end(),
                        {Value::Int(id), Value::Int(age), Value::Int(credit)});
    DBREPAIR_RETURN_IF_ERROR(flush(clients, client_cells, false));

    size_t buys = options.buys_per_client;
    bool hotspot = false;
    if (inconsistent && hotspots_left > 0) {
      hotspot = true;
      --hotspots_left;
      buys = options.hotspot_buys;
    }
    for (size_t b = 0; b < buys; ++b) {
      int64_t price;
      if (inconsistent &&
          (hotspot || rng.Bernoulli(options.purchase_violation_ratio))) {
        price = rng.UniformInRange(26, 100);  // violates ic1
      } else {
        price = rng.UniformInRange(1, 25);
      }
      buy_cells.insert(buy_cells.end(),
                       {Value::Int(id), Value::Int(static_cast<int64_t>(b + 1)),
                        Value::Int(price)});
      DBREPAIR_RETURN_IF_ERROR(flush(buys_table, buy_cells, false));
    }
  }
  DBREPAIR_RETURN_IF_ERROR(flush(clients, client_cells, true));
  DBREPAIR_RETURN_IF_ERROR(flush(buys_table, buy_cells, true));
  return GeneratedWorkload{std::move(db), MakeClientBuyConstraints()};
}

}  // namespace dbrepair
