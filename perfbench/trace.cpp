#include <fstream>
#include <stdexcept>

#include "perfbench.hpp"

namespace perfbench {

int Tracer::begin(const std::string& name) {
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, clock_.seconds(), 0.0, parent});
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  spans_[static_cast<std::size_t>(id)].end = clock_.seconds();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

double Tracer::total(const std::string& name) const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) sum += s.end - s.start;
  }
  return sum;
}

double Tracer::self_time(int id) const {
  const Span& span = spans_[static_cast<std::size_t>(id)];
  double children = 0.0;
  for (const Span& s : spans_) {
    if (s.parent == id) children += s.end - s.start;
  }
  return (span.end - span.start) - children;
}

void Tracer::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("perfbench: cannot write " + path);
  out.precision(17);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":" << s.start * 1e6
        << ",\"dur\":" << (s.end - s.start) * 1e6 << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << s.parent << "}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
