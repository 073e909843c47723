#include "tracer.h"

#include <cstdio>

namespace perfbench {
namespace {

// Open spans of the calling thread, innermost last.
thread_local std::vector<Tracer::SpanId> t_open;

}  // namespace

Tracer::Scope::Scope(Tracer& tracer, NameId name, SpanId parent) : tracer_(&tracer) {
  span_.name = name;
  span_.parent = parent != kNoParent ? parent : (t_open.empty() ? kNoParent : t_open.back());
  span_.id = tracer.next_id_.fetch_add(1, std::memory_order_relaxed);
  t_open.push_back(span_.id);
  span_.start_ns = now_ns();
}

void Tracer::Scope::end() {
  if (!open_) return;
  span_.end_ns = now_ns();
  open_ = false;
  if (!t_open.empty() && t_open.back() == span_.id) t_open.pop_back();
  tracer_->record(span_);
}

Tracer::NameId Tracer::intern(std::string_view name) {
  std::lock_guard lock(mutex_);
  if (auto found = ids_.find(name); found != ids_.end()) return found->second;
  const auto id = static_cast<NameId>(names_.size());
  names_.emplace_back(name);
  ids_.emplace(names_.back(), id);
  return id;
}

void Tracer::record(const Span& span) {
  std::lock_guard lock(mutex_);
  spans_.push_back(span);
}

bool Tracer::write(const std::string& path, const std::string& trace_id) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  std::fprintf(file, "trace\t%s\n", trace_id.c_str());
  for (const Span& span : spans_) {
    std::fprintf(file, "%llu\t%llu\t%s\t%lld\t%lld\n", static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent), names_[span.name].c_str(),
                 static_cast<long long>(span.start_ns), static_cast<long long>(span.end_ns));
  }
  return std::fclose(file) == 0;
}

}  // namespace perfbench
