#include "obs/export.h"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace querc::obs {

namespace {

std::string Num(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string Num(uint64_t v) { return std::to_string(v); }

/// Escapes a Prometheus label value: backslash, double quote, newline.
std::string EscapeLabel(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// Renders `{k="v",...}` with `extra` appended last; "" when empty.
std::string LabelBlock(const Labels& labels, const std::string& extra = "") {
  if (labels.empty() && extra.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key + "=\"" + EscapeLabel(value) + "\"";
  }
  if (!extra.empty()) {
    if (!first) out += ",";
    out += extra;
  }
  out += "}";
  return out;
}

void EmitFamilyHeader(std::ostringstream& os, const std::string& name,
                      const char* type,
                      const std::map<std::string, std::string>& help,
                      std::string& last_family) {
  if (name == last_family) return;
  last_family = name;
  auto it = help.find(name);
  if (it != help.end()) {
    os << "# HELP " << name << " " << it->second << "\n";
  }
  os << "# TYPE " << name << " " << type << "\n";
}

std::string EscapeJson(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string JsonLabels(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += '"';
    out += EscapeJson(key);
    out += "\":\"";
    out += EscapeJson(value);
    out += '"';
  }
  out += '}';
  return out;
}

}  // namespace

std::string ExportPrometheus(const MetricsRegistry& registry,
                             const std::string& prefix) {
  MetricsRegistry::Snapshot snap = registry.Collect(prefix);
  std::ostringstream os;
  std::string last_family;

  for (const auto& sample : snap.counters) {
    EmitFamilyHeader(os, sample.name, "counter", snap.help, last_family);
    os << sample.name << LabelBlock(sample.labels) << " " << Num(sample.value)
       << "\n";
  }
  last_family.clear();
  for (const auto& sample : snap.gauges) {
    EmitFamilyHeader(os, sample.name, "gauge", snap.help, last_family);
    os << sample.name << LabelBlock(sample.labels) << " " << Num(sample.value)
       << "\n";
  }
  last_family.clear();
  for (const auto& sample : snap.histograms) {
    EmitFamilyHeader(os, sample.name, "histogram", snap.help, last_family);
    const HistogramSnapshot& h = sample.snapshot;
    uint64_t cum = 0;
    for (size_t i = 0; i < h.buckets.size(); ++i) {
      if (h.buckets[i] == 0) continue;  // elide empty buckets: le stays sorted
      cum += h.buckets[i];
      os << sample.name << "_bucket"
         << LabelBlock(sample.labels,
                       "le=\"" + Num(Histogram::BucketUpperBound(i)) + "\"")
         << " " << Num(cum) << "\n";
    }
    os << sample.name << "_bucket"
       << LabelBlock(sample.labels, "le=\"+Inf\"") << " " << Num(h.count)
       << "\n";
    os << sample.name << "_sum" << LabelBlock(sample.labels) << " "
       << Num(h.sum) << "\n";
    os << sample.name << "_count" << LabelBlock(sample.labels) << " "
       << Num(h.count) << "\n";
  }
  return os.str();
}

std::string ExportPrometheus() {
  return ExportPrometheus(MetricsRegistry::Global());
}

std::string ExportJson(const MetricsRegistry& registry,
                       const std::string& prefix) {
  MetricsRegistry::Snapshot snap = registry.Collect(prefix);
  std::ostringstream os;
  os << "{\"counters\":[";
  bool first = true;
  for (const auto& sample : snap.counters) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << EscapeJson(sample.name) << "\",\"labels\":"
       << JsonLabels(sample.labels) << ",\"value\":" << Num(sample.value)
       << "}";
  }
  os << "],\"gauges\":[";
  first = true;
  for (const auto& sample : snap.gauges) {
    if (!first) os << ",";
    first = false;
    os << "{\"name\":\"" << EscapeJson(sample.name) << "\",\"labels\":"
       << JsonLabels(sample.labels) << ",\"value\":" << Num(sample.value)
       << "}";
  }
  os << "],\"histograms\":[";
  first = true;
  for (const auto& sample : snap.histograms) {
    if (!first) os << ",";
    first = false;
    const HistogramSnapshot& h = sample.snapshot;
    os << "{\"name\":\"" << EscapeJson(sample.name) << "\",\"labels\":"
       << JsonLabels(sample.labels) << ",\"count\":" << Num(h.count)
       << ",\"sum\":" << Num(h.sum) << ",\"min\":" << Num(h.min)
       << ",\"max\":" << Num(h.max) << ",\"mean\":" << Num(h.mean())
       << ",\"p50\":" << Num(h.p50()) << ",\"p90\":" << Num(h.p90())
       << ",\"p99\":" << Num(h.p99()) << "}";
  }
  os << "]}";
  return os.str();
}

std::string ExportJson() { return ExportJson(MetricsRegistry::Global()); }

}  // namespace querc::obs
