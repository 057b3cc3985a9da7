#include "obs/slo.h"

#include <vector>

#include "obs/json.h"

namespace statdb {

SloClass::SloClass(MetricsRegistry* registry, const std::string& name)
    : name_(name),
      total_(registry->GetCounter("slo." + name + ".total")),
      over_p50_(registry->GetCounter("slo." + name + ".over_p50")),
      over_p95_(registry->GetCounter("slo." + name + ".over_p95")),
      over_p99_(registry->GetCounter("slo." + name + ".over_p99")),
      errors_(registry->GetCounter("slo." + name + ".errors")),
      ms_(registry->GetHistogram("slo." + name + ".ms")) {
  SetTarget(SloTracker::DefaultTarget());
}

void SloClass::SetTarget(const SloTarget& target) {
  p50_ms_.store(target.p50_ms, std::memory_order_relaxed);
  p95_ms_.store(target.p95_ms, std::memory_order_relaxed);
  p99_ms_.store(target.p99_ms, std::memory_order_relaxed);
  error_budget_.store(target.error_budget, std::memory_order_relaxed);
}

SloTarget SloClass::target() const {
  SloTarget t;
  t.p50_ms = p50_ms_.load(std::memory_order_relaxed);
  t.p95_ms = p95_ms_.load(std::memory_order_relaxed);
  t.p99_ms = p99_ms_.load(std::memory_order_relaxed);
  t.error_budget = error_budget_.load(std::memory_order_relaxed);
  return t;
}

void SloClass::Record(double ms, bool is_error) {
  // Retargeting mid-run may miss a racing sample on either side of the
  // change, which a latency SLO can tolerate.
  total_->Inc();
  ms_->Record(ms);
  if (is_error) {
    errors_->Inc();
    return;
  }
  if (ms > p50_ms_.load(std::memory_order_relaxed)) over_p50_->Inc();
  if (ms > p95_ms_.load(std::memory_order_relaxed)) over_p95_->Inc();
  if (ms > p99_ms_.load(std::memory_order_relaxed)) over_p99_->Inc();
}

double SloClass::BudgetBurn() const {
  const double budget =
      error_budget_.load(std::memory_order_relaxed) * double(total_->Get());
  const double burned = double(over_p99_->Get() + errors_->Get());
  return budget > 0 ? burned / budget : (burned > 0 ? 1.0 : 0.0);
}

std::string SloClass::ToJson() const {
  const SloTarget t = target();
  return obs::JsonObject()
      .Str("class", name_)
      .Int("total", total_->Get())
      .Open("targets")
      .Num("p50_ms", t.p50_ms)
      .Num("p95_ms", t.p95_ms)
      .Num("p99_ms", t.p99_ms)
      .Close()
      .Open("observed")
      .Num("p50_ms", ms_->QuantileUpperBoundMs(0.50))
      .Num("p95_ms", ms_->QuantileUpperBoundMs(0.95))
      .Num("p99_ms", ms_->QuantileUpperBoundMs(0.99))
      .Close()
      .Open("breaches")
      .Int("over_p50", over_p50_->Get())
      .Int("over_p95", over_p95_->Get())
      .Int("over_p99", over_p99_->Get())
      .Close()
      .Open("error_budget")
      .Num("budget_pct", t.error_budget * 100.0)
      .Num("burn", BudgetBurn())
      .Int("errors", errors_->Get())
      .Close()
      .Build();
}

SloClass* SloTracker::GetClass(const std::string& query_class) {
  MutexLock lock(mu_);
  std::unique_ptr<SloClass>& slot = classes_[query_class];
  if (slot == nullptr) {
    slot = std::make_unique<SloClass>(registry_, query_class);
  }
  return slot.get();
}

std::string SloTracker::DumpJson() const {
  std::vector<std::string> rows;
  {
    MutexLock lock(mu_);
    for (const auto& [name, c] : classes_) rows.push_back(c->ToJson());
  }
  return obs::JsonObject()
      .Open("slo")
      .Raw("classes", obs::JsonArray(rows))
      .Close()
      .Build();
}

}  // namespace statdb
