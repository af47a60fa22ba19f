#include "tpcc/transactions.h"

#include <algorithm>
#include <unordered_set>

#include "common/clock.h"
#include "tpcc/cols.h"

namespace bullfrog::tpcc {

namespace {

/// Equality predicate on a (warehouse, district) pair.
ExprPtr WdPred(const char* wcol, const char* dcol, int64_t w, int64_t d) {
  return And(Eq(Col(wcol), LitInt(w)), Eq(Col(dcol), LitInt(d)));
}

/// Equality predicate on a (warehouse, district, order/customer) triple.
ExprPtr WdxPred(const char* wcol, const char* dcol, const char* xcol,
                int64_t w, int64_t d, int64_t x) {
  return And(WdPred(wcol, dcol, w, d), Eq(Col(xcol), LitInt(x)));
}

}  // namespace

std::vector<std::string> Transactions::CustomerTables() const {
  if (version() == SchemaVersion::kCustomerSplit) {
    return {kCustomerPrivate, kCustomerPublic};
  }
  return {kCustomer};
}

std::vector<std::string> Transactions::OrderLineTables() const {
  if (version() == SchemaVersion::kOrderlineStock) {
    return {kOrderlineStock};
  }
  return {kOrderLine, kStock};
}

Status Transactions::ReadCustomerDiscount(Database::Session* s, int64_t w,
                                          int64_t d, int64_t c,
                                          double* discount) {
  const bool split = version() == SchemaVersion::kCustomerSplit;
  const std::string table = split ? kCustomerPrivate : kCustomer;
  const size_t idx = split ? static_cast<size_t>(col::cpriv::kDiscount)
                           : static_cast<size_t>(col::cust::kDiscount);
  BF_ASSIGN_OR_RETURN(
      auto rows, db_->Select(s, table, WdxPred("c_w_id", "c_d_id", "c_id", w,
                                               d, c)));
  if (rows.empty()) {
    return Status::NotFound("customer (" + std::to_string(w) + "," +
                            std::to_string(d) + "," + std::to_string(c) +
                            ") missing in '" + table + "'");
  }
  *discount = rows[0].second[idx].AsDouble();
  return Status::OK();
}

Result<int64_t> Transactions::CustomerByLastName(Database::Session* s,
                                                 int64_t w, int64_t d,
                                                 const std::string& last) {
  const bool split = version() == SchemaVersion::kCustomerSplit;
  const std::string table = split ? kCustomerPublic : kCustomer;
  // Both tables share the leading (w, d, id, first, middle, last) layout.
  const size_t first_idx = split ? static_cast<size_t>(col::cpub::kFirst)
                                 : static_cast<size_t>(col::cust::kFirst);
  const size_t id_idx = split ? static_cast<size_t>(col::cpub::kId)
                              : static_cast<size_t>(col::cust::kId);
  ExprPtr pred = And(WdPred("c_w_id", "c_d_id", w, d),
                     Eq(Col("c_last"), LitStr(last)));
  BF_ASSIGN_OR_RETURN(auto rows, db_->Select(s, table, pred));
  if (rows.empty()) {
    return Status::NotFound("no customer with last name '" + last + "'");
  }
  // Clause 2.5.2.2: position ceil(n/2) in first-name order.
  std::sort(rows.begin(), rows.end(), [&](const auto& a, const auto& b) {
    return a.second[first_idx].AsString() < b.second[first_idx].AsString();
  });
  return rows[rows.size() / 2].second[id_idx].AsInt();
}

Status Transactions::NewOrder(const NewOrderParams& p) {
  const SchemaVersion v = version();
  std::vector<std::string> tables = {kWarehouse, kDistrict, kOrders,
                                     kNewOrder, kItem};
  for (auto& t : CustomerTables()) tables.push_back(t);
  for (auto& t : OrderLineTables()) tables.push_back(t);
  if (v == SchemaVersion::kOrderTotal) tables.push_back(kOrderTotal);

  auto s = db_->BeginSession(std::move(tables));
  auto fail = [&](Status st) {
    (void)db_->Abort(&s);
    return st;
  };

  // Warehouse and district tax rates; allocate the order id.
  auto wrows = db_->Select(&s, kWarehouse, Eq(Col("w_id"), LitInt(p.w_id)));
  if (!wrows.ok()) return fail(wrows.status());
  if (wrows->empty()) return fail(Status::NotFound("warehouse"));

  ExprPtr dpred = WdPred("d_w_id", "d_id", p.w_id, p.d_id);
  auto drows = db_->Select(&s, kDistrict, dpred, /*for_update=*/true);
  if (!drows.ok()) return fail(drows.status());
  if (drows->empty()) return fail(Status::NotFound("district"));
  const int64_t o_id = (*drows)[0].second[col::dist::kNextOId].AsInt();
  auto bump = db_->Update(&s, kDistrict, dpred, [](const Tuple& t) {
    Tuple n = t;
    n[col::dist::kNextOId] = Value::Int(t[col::dist::kNextOId].AsInt() + 1);
    return n;
  });
  if (!bump.ok()) return fail(bump.status());

  double discount = 0;
  Status cs = ReadCustomerDiscount(&s, p.w_id, p.d_id, p.c_id, &discount);
  if (!cs.ok()) return fail(cs);

  const int64_t now = Clock::NowMicros();
  Status ins = db_->Insert(&s, kOrders, Tuple{
      Value::Int(o_id), Value::Int(p.d_id), Value::Int(p.w_id),
      Value::Int(p.c_id), Value::Timestamp(now), Value::Null(),
      Value::Int(static_cast<int64_t>(p.lines.size())), Value::Int(1)});
  if (!ins.ok()) return fail(ins);
  ins = db_->Insert(&s, kNewOrder, Tuple{Value::Int(o_id), Value::Int(p.d_id),
                                         Value::Int(p.w_id)});
  if (!ins.ok()) return fail(ins);

  double total = 0;
  int64_t number = 0;
  for (const NewOrderLine& line : p.lines) {
    ++number;
    // Clause 2.4.1.4 rollback: the last line references an unused item.
    const int64_t item_id = (p.rollback && number ==
                             static_cast<int64_t>(p.lines.size()))
                                ? scale_.items + 1
                                : line.item_id;
    auto irows = db_->Select(&s, kItem, Eq(Col("i_id"), LitInt(item_id)));
    if (!irows.ok()) return fail(irows.status());
    if (irows->empty()) {
      return fail(Status::ConstraintViolation("invalid item id (rollback)"));
    }
    const double price = (*irows)[0].second[col::item::kPrice].AsDouble();
    const double amount =
        static_cast<double>(line.quantity) * price * (1.0 - discount);
    total += amount;

    if (v != SchemaVersion::kOrderlineStock) {
      // Stock read-modify-write on the base schema.
      ExprPtr spred = And(Eq(Col("s_w_id"), LitInt(line.supply_w_id)),
                          Eq(Col("s_i_id"), LitInt(item_id)));
      auto srows = db_->Select(&s, kStock, spred, /*for_update=*/true);
      if (!srows.ok()) return fail(srows.status());
      if (srows->empty()) return fail(Status::NotFound("stock"));
      const int64_t qty = (*srows)[0].second[col::stk::kQuantity].AsInt();
      const int64_t new_qty =
          qty >= line.quantity + 10 ? qty - line.quantity
                                    : qty - line.quantity + 91;
      auto su = db_->Update(&s, kStock, spred, [&](const Tuple& t) {
        Tuple n = t;
        n[col::stk::kQuantity] = Value::Int(new_qty);
        n[col::stk::kYtd] = Value::Double(t[col::stk::kYtd].AsDouble() +
                                          static_cast<double>(line.quantity));
        n[col::stk::kOrderCnt] = Value::Int(t[col::stk::kOrderCnt].AsInt() + 1);
        return n;
      });
      if (!su.ok()) return fail(su.status());
      ins = db_->Insert(&s, kOrderLine, Tuple{
          Value::Int(o_id), Value::Int(p.d_id), Value::Int(p.w_id),
          Value::Int(number), Value::Int(item_id), Value::Int(line.supply_w_id),
          Value::Null(), Value::Int(line.quantity), Value::Double(amount),
          Value::Str("dist-info")});
      if (!ins.ok()) return fail(ins);
    } else {
      // Denormalized schema: stock columns live on the joined rows as
      // insert-time snapshots (an insert-only denormalization — reading
      // or updating every joined copy of a stock row per NewOrder line
      // would turn the hottest transaction into a scan of the item's
      // whole join-key class and dominate any engine). The new line's
      // snapshot quantity is derived deterministically, like the spec's
      // initial population; historical rows keep their own snapshots, so
      // StockLevel still sees a realistic quantity distribution.
      const int64_t base_qty =
          (item_id * 73 + o_id) % 91 + 10;  // In [10, 100], like the loader.
      const int64_t new_qty =
          base_qty >= line.quantity + 10 ? base_qty - line.quantity
                                         : base_qty - line.quantity + 91;
      ins = db_->Insert(&s, kOrderlineStock, Tuple{
          Value::Int(o_id), Value::Int(p.d_id), Value::Int(p.w_id),
          Value::Int(number), Value::Int(item_id),
          Value::Int(line.supply_w_id), Value::Null(),
          Value::Int(line.quantity), Value::Double(amount),
          Value::Int(line.supply_w_id), Value::Int(new_qty),
          Value::Double(static_cast<double>(line.quantity)), Value::Int(1)});
      if (!ins.ok()) return fail(ins);
    }
  }

  if (v == SchemaVersion::kOrderTotal) {
    // The application maintains the aggregate alongside the base rows
    // (§4.2: "all future transactions update both the original and
    // aggregated version of this table"). Upsert semantics: an aggregate
    // row may already exist for this order id if a previous NewOrder
    // using the same id aborted after its dual-write propagation
    // committed (multi-step baseline, see migration/multistep.h).
    ins = db_->Insert(&s, kOrderTotal,
                      Tuple{Value::Int(p.w_id), Value::Int(p.d_id),
                            Value::Int(o_id), Value::Double(total)});
    if (ins.IsAlreadyExists()) {
      auto up = db_->Update(
          &s, kOrderTotal,
          WdxPred("ot_w_id", "ot_d_id", "ot_o_id", p.w_id, p.d_id, o_id),
          [&](const Tuple& t) {
            Tuple n = t;
            n[col::ot::kTotal] = Value::Double(total);
            return n;
          });
      if (!up.ok()) return fail(up.status());
    } else if (!ins.ok()) {
      return fail(ins);
    }
  }
  return db_->Commit(&s);
}

Status Transactions::Payment(const PaymentParams& p) {
  const SchemaVersion v = version();
  std::vector<std::string> tables = {kWarehouse, kDistrict, kHistory};
  for (auto& t : CustomerTables()) tables.push_back(t);
  auto s = db_->BeginSession(std::move(tables));
  auto fail = [&](Status st) {
    (void)db_->Abort(&s);
    return st;
  };

  auto wu = db_->Update(&s, kWarehouse, Eq(Col("w_id"), LitInt(p.w_id)),
                        [&](const Tuple& t) {
                          Tuple n = t;
                          n[col::wh::kYtd] = Value::Double(
                              t[col::wh::kYtd].AsDouble() + p.amount);
                          return n;
                        });
  if (!wu.ok()) return fail(wu.status());
  auto du = db_->Update(&s, kDistrict,
                        WdPred("d_w_id", "d_id", p.w_id, p.d_id),
                        [&](const Tuple& t) {
                          Tuple n = t;
                          n[col::dist::kYtd] = Value::Double(
                              t[col::dist::kYtd].AsDouble() + p.amount);
                          return n;
                        });
  if (!du.ok()) return fail(du.status());

  int64_t c_id = p.c_id;
  if (p.by_last_name) {
    auto resolved = CustomerByLastName(&s, p.c_w_id, p.c_d_id, p.c_last);
    if (!resolved.ok()) return fail(resolved.status());
    c_id = *resolved;
  }

  ExprPtr cpred =
      WdxPred("c_w_id", "c_d_id", "c_id", p.c_w_id, p.c_d_id, c_id);
  if (v == SchemaVersion::kCustomerSplit) {
    auto cu = db_->Update(&s, kCustomerPrivate, cpred, [&](const Tuple& t) {
      Tuple n = t;
      n[col::cpriv::kBalance] =
          Value::Double(t[col::cpriv::kBalance].AsDouble() - p.amount);
      n[col::cpriv::kYtdPayment] =
          Value::Double(t[col::cpriv::kYtdPayment].AsDouble() + p.amount);
      n[col::cpriv::kPaymentCnt] =
          Value::Int(t[col::cpriv::kPaymentCnt].AsInt() + 1);
      if (t[col::cpriv::kCredit].AsString() == "BC") {
        n[col::cpriv::kData] = Value::Str(
            (std::to_string(c_id) + "/" + std::to_string(p.amount) + "|" +
             t[col::cpriv::kData].AsString())
                .substr(0, 500));
      }
      return n;
    });
    if (!cu.ok()) return fail(cu.status());
    if (*cu == 0) return fail(Status::NotFound("customer (split)"));
  } else {
    auto cu = db_->Update(&s, kCustomer, cpred, [&](const Tuple& t) {
      Tuple n = t;
      n[col::cust::kBalance] =
          Value::Double(t[col::cust::kBalance].AsDouble() - p.amount);
      n[col::cust::kYtdPayment] =
          Value::Double(t[col::cust::kYtdPayment].AsDouble() + p.amount);
      n[col::cust::kPaymentCnt] =
          Value::Int(t[col::cust::kPaymentCnt].AsInt() + 1);
      if (t[col::cust::kCredit].AsString() == "BC") {
        n[col::cust::kData] = Value::Str(
            (std::to_string(c_id) + "/" + std::to_string(p.amount) + "|" +
             t[col::cust::kData].AsString())
                .substr(0, 500));
      }
      return n;
    });
    if (!cu.ok()) return fail(cu.status());
    if (*cu == 0) return fail(Status::NotFound("customer"));
  }

  Status ins = db_->Insert(&s, kHistory, Tuple{
      Value::Int(c_id), Value::Int(p.c_d_id), Value::Int(p.c_w_id),
      Value::Int(p.d_id), Value::Int(p.w_id),
      Value::Timestamp(Clock::NowMicros()), Value::Double(p.amount),
      Value::Str("payment")});
  if (!ins.ok()) return fail(ins);
  return db_->Commit(&s);
}

Status Transactions::OrderStatus(const OrderStatusParams& p) {
  const SchemaVersion v = version();
  std::vector<std::string> tables = {kOrders};
  for (auto& t : CustomerTables()) tables.push_back(t);
  for (auto& t : OrderLineTables()) tables.push_back(t);
  auto s = db_->BeginSession(std::move(tables));
  auto fail = [&](Status st) {
    (void)db_->Abort(&s);
    return st;
  };

  int64_t c_id = p.c_id;
  if (p.by_last_name) {
    auto resolved = CustomerByLastName(&s, p.w_id, p.d_id, p.c_last);
    if (!resolved.ok()) return fail(resolved.status());
    c_id = *resolved;
  }

  // Customer balance + name.
  if (v == SchemaVersion::kCustomerSplit) {
    auto priv = db_->Select(
        &s, kCustomerPrivate,
        WdxPred("c_w_id", "c_d_id", "c_id", p.w_id, p.d_id, c_id));
    if (!priv.ok()) return fail(priv.status());
    if (priv->empty()) return fail(Status::NotFound("customer (split)"));
    auto pub = db_->Select(
        &s, kCustomerPublic,
        WdxPred("c_w_id", "c_d_id", "c_id", p.w_id, p.d_id, c_id));
    if (!pub.ok()) return fail(pub.status());
    if (pub->empty()) return fail(Status::NotFound("customer (public)"));
  } else {
    auto crow = db_->Select(
        &s, kCustomer,
        WdxPred("c_w_id", "c_d_id", "c_id", p.w_id, p.d_id, c_id));
    if (!crow.ok()) return fail(crow.status());
    if (crow->empty()) return fail(Status::NotFound("customer"));
  }

  // The customer's most recent order.
  auto orows = db_->Select(
      &s, kOrders,
      WdxPred("o_w_id", "o_d_id", "o_c_id", p.w_id, p.d_id, c_id));
  if (!orows.ok()) return fail(orows.status());
  if (orows->empty()) return db_->Commit(&s);  // No orders yet.
  int64_t last_o = 0;
  for (auto& [rid, row] : *orows) {
    last_o = std::max(last_o, row[col::ord::kId].AsInt());
  }

  if (v == SchemaVersion::kOrderlineStock) {
    ExprPtr pred =
        And(WdxPred("ol_w_id", "ol_d_id", "ol_o_id", p.w_id, p.d_id, last_o),
            Eq(Col("s_w_id"), Col("ol_supply_w_id")));
    auto lines = db_->Select(&s, kOrderlineStock, pred);
    if (!lines.ok()) return fail(lines.status());
  } else {
    auto lines = db_->Select(
        &s, kOrderLine,
        WdxPred("ol_w_id", "ol_d_id", "ol_o_id", p.w_id, p.d_id, last_o));
    if (!lines.ok()) return fail(lines.status());
  }
  return db_->Commit(&s);
}

Status Transactions::Delivery(const DeliveryParams& p) {
  const SchemaVersion v = version();
  std::vector<std::string> tables = {kNewOrder, kOrders};
  for (auto& t : CustomerTables()) tables.push_back(t);
  for (auto& t : OrderLineTables()) tables.push_back(t);
  if (v == SchemaVersion::kOrderTotal) tables.push_back(kOrderTotal);
  auto s = db_->BeginSession(std::move(tables));
  auto fail = [&](Status st) {
    (void)db_->Abort(&s);
    return st;
  };
  const int64_t now = Clock::NowMicros();

  for (int64_t d = 1; d <= scale_.districts_per_warehouse; ++d) {
    // Oldest undelivered order: probe the ordered secondary index.
    auto no_table = db_->catalog().RequireActive(kNewOrder);
    if (!no_table.ok()) return fail(no_table.status());
    const Table& new_order = **no_table;
    Index* ordered = new_order.FindIndex("new_order_ordered");
    const Tuple district{Value::Int(p.w_id), Value::Int(d)};
    int64_t o_id = -1;
    // Ascending o_id order; stop at the first live row.
    Status range = ordered->RangeScan(
        district, district, [&](const Tuple&, RowId rid) {
          Tuple row;
          if (!new_order.Read(rid, &row).ok()) return true;
          o_id = row[col::no::kOId].AsInt();
          return false;
        });
    if (!range.ok()) return fail(range);
    if (o_id < 0) continue;  // District fully delivered.

    auto del = db_->Delete(
        &s, kNewOrder,
        WdxPred("no_w_id", "no_d_id", "no_o_id", p.w_id, d, o_id));
    if (!del.ok()) return fail(del.status());
    if (*del == 0) continue;  // Raced with a concurrent Delivery.

    ExprPtr opred = WdxPred("o_w_id", "o_d_id", "o_id", p.w_id, d, o_id);
    auto orows = db_->Select(&s, kOrders, opred, /*for_update=*/true);
    if (!orows.ok()) return fail(orows.status());
    if (orows->empty()) continue;
    const int64_t c_id = (*orows)[0].second[col::ord::kCId].AsInt();
    auto ou = db_->Update(&s, kOrders, opred, [&](const Tuple& t) {
      Tuple n = t;
      n[col::ord::kCarrierId] = Value::Int(p.carrier_id);
      return n;
    });
    if (!ou.ok()) return fail(ou.status());

    // The implicit aggregate (§4.2): SUM(OL_AMOUNT) for the order.
    double total = 0;
    if (v == SchemaVersion::kOrderTotal) {
      // Served by the application-maintained aggregate table; reading it
      // lazily migrates the group if needed.
      auto trow = db_->Select(
          &s, kOrderTotal,
          WdxPred("ot_w_id", "ot_d_id", "ot_o_id", p.w_id, d, o_id));
      if (!trow.ok()) return fail(trow.status());
      if (!trow->empty()) {
        total = (*trow)[0].second[col::ot::kTotal].AsDouble();
      }
      auto lu = db_->Update(
          &s, kOrderLine,
          WdxPred("ol_w_id", "ol_d_id", "ol_o_id", p.w_id, d, o_id),
          [&](const Tuple& t) {
            Tuple n = t;
            n[col::ol::kDeliveryD] = Value::Timestamp(now);
            return n;
          });
      if (!lu.ok()) return fail(lu.status());
    } else if (v == SchemaVersion::kOrderlineStock) {
      ExprPtr lpred =
          And(WdxPred("ol_w_id", "ol_d_id", "ol_o_id", p.w_id, d, o_id),
              Eq(Col("s_w_id"), Col("ol_supply_w_id")));
      auto lines = db_->Select(&s, kOrderlineStock, lpred);
      if (!lines.ok()) return fail(lines.status());
      for (auto& [rid, row] : *lines) {
        total += row[col::ols::kAmount].AsDouble();
      }
      auto lu = db_->Update(
          &s, kOrderlineStock,
          WdxPred("ol_w_id", "ol_d_id", "ol_o_id", p.w_id, d, o_id),
          [&](const Tuple& t) {
            Tuple n = t;
            n[col::ols::kDeliveryD] = Value::Timestamp(now);
            return n;
          });
      if (!lu.ok()) return fail(lu.status());
    } else {
      ExprPtr lpred =
          WdxPred("ol_w_id", "ol_d_id", "ol_o_id", p.w_id, d, o_id);
      auto lines = db_->Select(&s, kOrderLine, lpred);
      if (!lines.ok()) return fail(lines.status());
      for (auto& [rid, row] : *lines) {
        total += row[col::ol::kAmount].AsDouble();
      }
      auto lu = db_->Update(&s, kOrderLine, lpred, [&](const Tuple& t) {
        Tuple n = t;
        n[col::ol::kDeliveryD] = Value::Timestamp(now);
        return n;
      });
      if (!lu.ok()) return fail(lu.status());
    }

    ExprPtr cpred = WdxPred("c_w_id", "c_d_id", "c_id", p.w_id, d, c_id);
    if (v == SchemaVersion::kCustomerSplit) {
      auto cu = db_->Update(&s, kCustomerPrivate, cpred, [&](const Tuple& t) {
        Tuple n = t;
        n[col::cpriv::kBalance] =
            Value::Double(t[col::cpriv::kBalance].AsDouble() + total);
        n[col::cpriv::kDeliveryCnt] =
            Value::Int(t[col::cpriv::kDeliveryCnt].AsInt() + 1);
        return n;
      });
      if (!cu.ok()) return fail(cu.status());
    } else {
      auto cu = db_->Update(&s, kCustomer, cpred, [&](const Tuple& t) {
        Tuple n = t;
        n[col::cust::kBalance] =
            Value::Double(t[col::cust::kBalance].AsDouble() + total);
        n[col::cust::kDeliveryCnt] =
            Value::Int(t[col::cust::kDeliveryCnt].AsInt() + 1);
        return n;
      });
      if (!cu.ok()) return fail(cu.status());
    }
  }
  return db_->Commit(&s);
}

Status Transactions::StockLevel(const StockLevelParams& p) {
  const SchemaVersion v = version();
  std::vector<std::string> tables = {kDistrict};
  for (auto& t : OrderLineTables()) tables.push_back(t);
  auto s = db_->BeginSession(std::move(tables));
  auto fail = [&](Status st) {
    (void)db_->Abort(&s);
    return st;
  };

  auto drows = db_->Select(&s, kDistrict,
                           WdPred("d_w_id", "d_id", p.w_id, p.d_id));
  if (!drows.ok()) return fail(drows.status());
  if (drows->empty()) return fail(Status::NotFound("district"));
  const int64_t next_o = (*drows)[0].second[col::dist::kNextOId].AsInt();
  const int64_t lo = std::max<int64_t>(1, next_o - 20);

  int64_t low_stock = 0;
  if (v == SchemaVersion::kOrderlineStock) {
    // Denormalized: one query shape per recent order (the join the schema
    // was evolved to accelerate, §4.3).
    std::unordered_set<int64_t> items;
    for (int64_t o = lo; o < next_o; ++o) {
      ExprPtr pred =
          And(WdxPred("ol_w_id", "ol_d_id", "ol_o_id", p.w_id, p.d_id, o),
              And(Eq(Col("s_w_id"), LitInt(p.w_id)),
                  Lt(Col("s_quantity"), LitInt(p.threshold))));
      auto rows = db_->Select(&s, kOrderlineStock, pred);
      if (!rows.ok()) return fail(rows.status());
      for (auto& [rid, row] : *rows) {
        items.insert(row[col::ols::kIId].AsInt());
      }
    }
    low_stock = static_cast<int64_t>(items.size());
  } else {
    std::unordered_set<int64_t> items;
    for (int64_t o = lo; o < next_o; ++o) {
      auto rows = db_->Select(
          &s, kOrderLine,
          WdxPred("ol_w_id", "ol_d_id", "ol_o_id", p.w_id, p.d_id, o));
      if (!rows.ok()) return fail(rows.status());
      for (auto& [rid, row] : *rows) {
        items.insert(row[col::ol::kIId].AsInt());
      }
    }
    for (int64_t i : items) {
      auto srows = db_->Select(&s, kStock,
                               And(Eq(Col("s_w_id"), LitInt(p.w_id)),
                                   Eq(Col("s_i_id"), LitInt(i))));
      if (!srows.ok()) return fail(srows.status());
      if (!srows->empty() &&
          (*srows)[0].second[col::stk::kQuantity].AsInt() < p.threshold) {
        ++low_stock;
      }
    }
  }
  (void)low_stock;
  return db_->Commit(&s);
}

}  // namespace bullfrog::tpcc
