#include "traced.hpp"

#include <cstring>

namespace lbperf {

namespace {

/// Membership bitmap over unit ids.
std::vector<bool> unit_mask(const std::vector<std::uint32_t>& units) {
  std::vector<bool> mask;
  for (std::uint32_t u : units) {
    if (u >= mask.size()) mask.resize(u + 1, false);
    mask[u] = true;
  }
  return mask;
}

bool in_mask(std::uint32_t unit, const std::vector<bool>& mask) {
  return unit < mask.size() && mask[unit];
}

}  // namespace

std::vector<double> span_ms(const SpanLog& log, const char* name,
                            const std::vector<std::uint32_t>& units) {
  const std::vector<bool> mask = unit_mask(units);
  std::vector<double> out;
  for (const Span& s : log.spans()) {
    if (std::strcmp(s.name, name) == 0 && in_mask(s.unit, mask)) {
      out.push_back(s.duration_ms());
    }
  }
  return out;
}

std::vector<double> run_round_ms(const SpanLog& log, const std::vector<std::uint32_t>& units) {
  const std::vector<Span>& spans = log.spans();
  std::vector<std::size_t> rounds(spans.size(), 0);
  for (const Span& s : spans) {
    if (s.parent >= 0 && std::strcmp(s.name, kSpanRound) == 0) {
      ++rounds[static_cast<std::size_t>(s.parent)];
    }
  }
  const std::vector<bool> mask = unit_mask(units);
  std::vector<double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (rounds[i] == 0 || !in_mask(spans[i].unit, mask)) continue;
    out.push_back(spans[i].duration_ms() / static_cast<double>(rounds[i]));
  }
  return out;
}

}  // namespace lbperf
