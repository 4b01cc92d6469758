#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <map>
#include <utility>

#include "util/error.hpp"

namespace perfbench {

double now_ms() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

int Tracer::begin(const char* name, std::int64_t id) {
  Record record;
  record.name = name;
  record.id = id;
  record.parent = open_.empty() ? -1 : open_.back();
  record.start_ms = now_ms();
  records_.push_back(record);
  const int index = static_cast<int>(records_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::end(int index) {
  if (index < 0) return;
  records_[static_cast<std::size_t>(index)].end_ms = now_ms();
  // Spans close innermost-first (RAII), so index is the top of the stack.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void Tracer::add_async(const char* name, std::int64_t id, double start_ms,
                       double end_ms) {
  Record record;
  record.name = name;
  record.id = id;
  record.start_ms = start_ms;
  record.end_ms = end_ms;
  async_.push_back(record);
}

std::vector<Tracer::Row> Tracer::breakdown(double window_ms) const {
  std::vector<double> child_ms(records_.size(), 0.0);
  for (const Record& record : records_) {
    if (record.parent >= 0) {
      child_ms[static_cast<std::size_t>(record.parent)] +=
          record.end_ms - record.start_ms;
    }
  }
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& record = records_[i];
    Row& row = rows[record.name];
    row.name = record.name;
    const double duration = record.end_ms - record.start_ms;
    ++row.calls;
    row.total_ms += duration;
    row.self_ms += duration - child_ms[i];
  }
  std::vector<Row> out;
  for (auto& [name, row] : rows) {
    row.share = window_ms > 0.0 ? row.total_ms / window_ms : 0.0;
    out.push_back(row);
  }
  std::sort(out.begin(), out.end(), [](const Row& a, const Row& b) {
    return a.total_ms > b.total_ms;
  });
  return out;
}

double Tracer::root_ms(double begin_ms, double end_ms) const {
  double total = 0.0;
  for (const Record& record : records_) {
    if (record.parent < 0 && record.start_ms >= begin_ms &&
        record.start_ms <= end_ms) {
      total += std::min(record.end_ms, end_ms) - record.start_ms;
    }
  }
  return total;
}

void Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  CA_CHECK(out, "cannot write trace file '" << path << "'");
  out.setf(std::ios::fixed);
  out.precision(3);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
         "\"args\":{\"name\":\"benchmark thread\"}}";
  for (const Record& record : records_) {
    out << ",\n{\"name\":\"" << record.name
        << "\",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
        << record.start_ms * 1e3
        << ",\"dur\":" << (record.end_ms - record.start_ms) * 1e3;
    if (record.id >= 0) out << ",\"args\":{\"id\":" << record.id << "}";
    out << "}";
  }
  // Each operation gets its own async track in Perfetto.
  for (const Record& record : async_) {
    for (const auto& [phase, ts] :
         {std::pair{"b", record.start_ms}, std::pair{"e", record.end_ms}}) {
      out << ",\n{\"name\":\"" << record.name
          << "\",\"cat\":\"op\",\"ph\":\"" << phase
          << "\",\"pid\":1,\"id\":" << record.id << ",\"ts\":" << ts * 1e3
          << ",\"args\":{\"id\":" << record.id << "}}";
    }
  }
  out << "\n]}\n";
  CA_CHECK(out.good(), "failed writing trace file '" << path << "'");
}

}  // namespace perfbench
