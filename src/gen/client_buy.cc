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

  // Exact for Client; for Buy an upper bound (hotspot clients take
  // hotspot_buys in place of buys_per_client).
  db.FindMutableTable("Client")->Reserve(options.num_clients);
  db.FindMutableTable("Buy")->Reserve(
      options.num_clients * options.buys_per_client +
      options.hotspot_clients * options.hotspot_buys);
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
    DBREPAIR_RETURN_IF_ERROR(
        db.Insert("Client",
                  {Value::Int(id), Value::Int(age), Value::Int(credit)})
            .status());

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
      DBREPAIR_RETURN_IF_ERROR(
          db.Insert("Buy", {Value::Int(id),
                            Value::Int(static_cast<int64_t>(b + 1)),
                            Value::Int(price)})
              .status());
    }
  }
  return GeneratedWorkload{std::move(db), MakeClientBuyConstraints()};
}

}  // namespace dbrepair
