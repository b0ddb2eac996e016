#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

SpanLog::SpanLog(std::string run_id, bool enabled)
    : run_id_(std::move(run_id)),
      enabled_(enabled),
      epoch_(std::chrono::steady_clock::now()) {
  if (enabled_) spans_.reserve(1 << 16);
}

int64_t SpanLog::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int64_t SpanLog::Begin(const std::string& name, int64_t parent,
                       std::string detail) {
  if (!enabled_) return -1;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  const int64_t id = static_cast<int64_t>(spans_.size());
  spans_.push_back({id, parent, name, std::move(detail), now, -1});
  return id;
}

void SpanLog::End(int64_t id) {
  if (id < 0) return;
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id].end_ns = now;
}

std::vector<SpanLog::SelfTime> SpanLog::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children's intervals per parent, clipped to the parent and merged, so
  // overlapping children (two serving clients inside one wave) count once.
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0 && s.end_ns >= 0) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, SelfTime> by_name;
  for (const Span& s : spans_) {
    if (s.end_ns < 0) continue;
    std::vector<std::pair<int64_t, int64_t>>& kids = children[s.id];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = s.start_ns;
    for (auto [begin, end] : kids) {
      begin = std::max(begin, cursor);
      end = std::min(end, s.end_ns);
      if (end > begin) {
        covered += end - begin;
        cursor = end;
      }
    }
    SelfTime& row = by_name[s.name];
    row.name = s.name;
    row.count += 1;
    row.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    row.self_ms += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  std::vector<SelfTime> rows;
  for (auto& [name, row] : by_name) rows.push_back(row);
  return rows;
}

bool SpanLog::WriteJsonLines(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(out,
                 "{\"run\":\"%s\",\"id\":%lld,\"parent\":%lld,\"name\":\"%s\","
                 "\"detail\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 run_id_.c_str(), static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), s.name.c_str(),
                 s.detail.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
