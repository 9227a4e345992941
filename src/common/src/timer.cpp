#include "grist/common/timer.hpp"

#include <mutex>

namespace grist {
namespace {
std::mutex g_mutex;
}

TimingRegistry& TimingRegistry::instance() {
  static TimingRegistry registry;
  return registry;
}

void TimingRegistry::add(std::string_view section, double seconds) {
  const std::lock_guard<std::mutex> lock(g_mutex);
  const auto it = totals_.find(section);
  if (it != totals_.end()) {
    it->second += seconds;
  } else {
    totals_.emplace(section, seconds);
  }
}

double TimingRegistry::total(std::string_view section) const {
  const std::lock_guard<std::mutex> lock(g_mutex);
  const auto it = totals_.find(section);
  return it == totals_.end() ? 0.0 : it->second;
}

TimingRegistry::Totals TimingRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(g_mutex);
  return totals_;
}

void TimingRegistry::clear() {
  const std::lock_guard<std::mutex> lock(g_mutex);
  totals_.clear();
}

} // namespace grist
