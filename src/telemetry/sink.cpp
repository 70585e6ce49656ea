#include "telemetry/sink.hpp"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/error.hpp"

namespace iscope::telemetry {

namespace {

std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

/// CSV-quote only when needed (labels are typically bare scheme names).
std::string csv_field(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  return out + "\"";
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ISCOPE_CHECK(out.good(), "telemetry: cannot open '" + path +
                               "' for writing");
  out << content;
  out.flush();
  ISCOPE_CHECK(out.good(), "telemetry: write to '" + path + "' failed");
}

}  // namespace

void SampleLog::append(const SampleRow& row) {
  const std::lock_guard<std::mutex> lock(mutex_);
  rows_.push_back(row);
}

std::vector<SampleRow> SampleLog::rows() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return rows_;
}

std::size_t SampleLog::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return rows_.size();
}

void SampleLog::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  rows_.clear();
}

std::string SampleLog::to_csv() const {
  std::string out =
      "label,time_s,demand_w,wind_avail_w,wind_w,battery_w,utility_w,"
      "queue_depth,waiting_tasks,running_tasks,idle_procs\n";
  for (const SampleRow& r : rows()) {
    out += csv_field(r.label);
    out += ',' + format_double(r.time_s);
    out += ',' + format_double(r.demand_w);
    out += ',' + format_double(r.wind_avail_w);
    out += ',' + format_double(r.wind_w);
    out += ',' + format_double(r.battery_w);
    out += ',' + format_double(r.utility_w);
    out += ',' + std::to_string(r.queue_depth);
    out += ',' + std::to_string(r.waiting_tasks);
    out += ',' + std::to_string(r.running_tasks);
    out += ',' + std::to_string(r.idle_procs);
    out += '\n';
  }
  return out;
}

std::string SampleLog::to_json() const {
  std::string out = "[\n";
  bool first = true;
  for (const SampleRow& r : rows()) {
    if (!first) out += ",\n";
    first = false;
    out += "  {\"label\": " + json_escape(r.label) +
           ", \"time_s\": " + format_double(r.time_s) +
           ", \"demand_w\": " + format_double(r.demand_w) +
           ", \"wind_avail_w\": " + format_double(r.wind_avail_w) +
           ", \"wind_w\": " + format_double(r.wind_w) +
           ", \"battery_w\": " + format_double(r.battery_w) +
           ", \"utility_w\": " + format_double(r.utility_w) +
           ", \"queue_depth\": " + std::to_string(r.queue_depth) +
           ", \"waiting_tasks\": " + std::to_string(r.waiting_tasks) +
           ", \"running_tasks\": " + std::to_string(r.running_tasks) +
           ", \"idle_procs\": " + std::to_string(r.idle_procs) + "}";
  }
  out += "\n]\n";
  return out;
}

SampleLog& SampleLog::global() {
  static SampleLog* s = new SampleLog;  // leaked: see header
  return *s;
}

RunReportPaths write_run_report(const std::string& dir,
                                const Registry& registry,
                                const TraceLog& trace,
                                const SampleLog& samples) {
  ISCOPE_CHECK_ARG(!dir.empty(), "telemetry: report directory is empty");
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  ISCOPE_CHECK(!ec, "telemetry: cannot create report directory '" + dir +
                        "': " + ec.message());

  const Snapshot snap = registry.snapshot();
  RunReportPaths paths;
  paths.metrics_prom = dir + "/metrics.prom";
  paths.metrics_json = dir + "/metrics.json";
  paths.samples_csv = dir + "/samples.csv";
  paths.trace_json = dir + "/trace.json";
  write_file(paths.metrics_prom, to_prometheus(snap));
  write_file(paths.metrics_json, to_json(snap));
  write_file(paths.samples_csv, samples.to_csv());
  write_file(paths.trace_json, trace.to_chrome_json());
  return paths;
}

void write_chrome_trace(const std::string& path, const TraceLog& trace) {
  write_file(path, trace.to_chrome_json());
}

std::string validate_prometheus_text(const std::string& text) {
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.empty() || line[0] == '#') continue;

    // `name` or `name{label="v",...}` then exactly one space and a number.
    std::size_t i = 0;
    while (i < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[i])) != 0 ||
            line[i] == '_' || line[i] == ':'))
      ++i;
    if (i == 0)
      return "line " + std::to_string(line_no) + ": missing metric name";
    if (i < line.size() && line[i] == '{') {
      const std::size_t close = line.find('}', i);
      if (close == std::string::npos)
        return "line " + std::to_string(line_no) + ": unterminated labels";
      i = close + 1;
    }
    if (i >= line.size() || line[i] != ' ')
      return "line " + std::to_string(line_no) +
             ": expected space before value";
    const std::string value = line.substr(i + 1);
    if (value.empty())
      return "line " + std::to_string(line_no) + ": missing value";
    if (value != "+Inf" && value != "-Inf" && value != "NaN") {
      errno = 0;
      char* parse_end = nullptr;
      std::strtod(value.c_str(), &parse_end);
      if (parse_end == value.c_str() || *parse_end != '\0' || errno == ERANGE)
        return "line " + std::to_string(line_no) + ": bad value '" + value +
               "'";
    }
  }
  return "";
}

void reset_global_telemetry() {
  Registry::global().reset();
  TraceLog::global().clear();
  SampleLog::global().clear();
}

}  // namespace iscope::telemetry
