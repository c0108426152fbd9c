#include "bench/report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "common/json_util.hpp"

namespace ofl::bench {
namespace {

std::string fmtDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string fmtPercent(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%+.1f%%", v * 100.0);
  return buf;
}

const char* verdictTag(Verdict v) {
  switch (v) {
    case Verdict::kOk: return "ok";
    case Verdict::kImproved: return "improved";
    case Verdict::kRegressed: return "REGRESSED";
    case Verdict::kSkipped: return "skipped";
    case Verdict::kMissing: return "MISSING";
  }
  return "?";
}

void appendHtmlEscaped(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      default: out += c;
    }
  }
}

}  // namespace

const SeriesDoc* BenchDoc::find(const std::string& name) const {
  for (const SeriesDoc& s : series) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

bool BenchDoc::fromJson(const std::string& text, BenchDoc& out,
                        std::string& error) {
  const std::optional<json::Value> parsed = json::Value::parse(text);
  if (!parsed || !parsed->isObject()) {
    error = "not a JSON object";
    return false;
  }
  const json::Value& root = *parsed;
  const json::Value* schema = root.find("schema");
  if (schema == nullptr || !schema->isString() ||
      schema->str != "openfill-bench-v1") {
    error = "missing or unsupported schema (want openfill-bench-v1)";
    return false;
  }
  out = BenchDoc{};
  out.schema = schema->str;
  if (const auto* v = root.find("benchmark"); v && v->isString()) {
    out.benchmark = v->str;
  }
  if (const auto* v = root.find("suite"); v && v->isString()) {
    out.suite = v->str;
  }
  if (const auto* v = root.find("created_unix"); v && v->isNumber()) {
    out.createdUnix = static_cast<long long>(v->number);
  }
  if (const auto* v = root.find("reps"); v && v->isNumber()) {
    out.reps = static_cast<int>(v->number);
  }
  if (const auto* v = root.find("warmup"); v && v->isNumber()) {
    out.warmup = static_cast<int>(v->number);
  }
  if (const auto* v = root.find("peak_rss_mib"); v && v->isNumber()) {
    out.peakRssMiB = v->number;
  }
  if (const auto* v = root.find("ok")) {
    out.ok = v->kind != json::Value::Kind::kBool || v->boolean;
  }
  if (const auto* m = root.find("machine"); m && m->isObject()) {
    std::string cpu;
    int cores = 0;
    if (const auto* v = m->find("cpu"); v && v->isString()) cpu = v->str;
    if (const auto* v = m->find("cores"); v && v->isNumber()) {
      cores = static_cast<int>(v->number);
    }
    out.fingerprint = cpu + "/" + std::to_string(cores);
    if (const auto* v = m->find("git_sha"); v && v->isString()) {
      out.gitSha = v->str;
    }
  }
  if (const auto* c = root.find("checks"); c && c->isObject()) {
    for (const auto& [name, v] : c->object) {
      out.checks.emplace_back(name,
                              v.kind != json::Value::Kind::kBool || v.boolean);
    }
  }
  const json::Value* series = root.find("series");
  if (series == nullptr || !series->isObject()) {
    error = "missing series object";
    return false;
  }
  for (const auto& [name, sv] : series->object) {
    if (!sv.isObject()) continue;
    SeriesDoc s;
    s.name = name;
    if (const auto* v = sv.find("unit"); v && v->isString()) s.unit = v->str;
    if (const auto* v = sv.find("direction"); v && v->isString()) {
      s.higherIsBetter = v->str == "higher";
    }
    if (const auto* v = sv.find("scale"); v && v->isString()) {
      s.wallClock = v->str != "ratio";
    }
    if (const auto* v = sv.find("samples"); v && v->isArray()) {
      for (const json::Value& x : v->array) {
        if (x.isNumber()) s.samples.push_back(x.number);
      }
    }
    if (const auto* v = sv.find("rejected_outliers"); v && v->isNumber()) {
      s.rejectedOutliers = static_cast<std::size_t>(v->number);
    }
    const auto num = [&sv](const char* key, double& dst) {
      if (const auto* v = sv.find(key); v && v->isNumber()) dst = v->number;
    };
    num("mean", s.mean);
    num("min", s.min);
    num("max", s.max);
    num("stddev", s.stddev);
    num("median", s.median);
    num("ci_lo", s.ciLo);
    num("ci_hi", s.ciHi);
    num("ci_level", s.ciLevel);
    out.series.push_back(std::move(s));
  }
  return true;
}

bool BenchDoc::load(const std::string& path, BenchDoc& out,
                    std::string& error) {
  std::ifstream in(path);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  std::stringstream buf;
  buf << in.rdbuf();
  if (!fromJson(buf.str(), out, error)) {
    error = path + ": " + error;
    return false;
  }
  out.sourcePath = path;
  return true;
}

CompareResult compare(const BenchDoc& baseline, const BenchDoc& current,
                      double threshold) {
  CompareResult result;
  for (const auto& [name, ok] : current.checks) {
    if (!ok) result.checksFailed = true;
  }
  const bool sameMachine =
      !baseline.fingerprint.empty() &&
      baseline.fingerprint == current.fingerprint;

  for (const SeriesDoc& base : baseline.series) {
    SeriesComparison c;
    c.name = base.name;
    c.baselineMean = base.mean;
    const SeriesDoc* cur = current.find(base.name);
    if (cur == nullptr) {
      c.verdict = Verdict::kMissing;
      c.detail = "series absent in current run";
      ++result.missing;
      result.series.push_back(std::move(c));
      continue;
    }
    c.currentMean = cur->mean;
    if (base.wallClock && !sameMachine) {
      c.verdict = Verdict::kSkipped;
      c.detail = "wall-clock series, machine fingerprints differ";
      ++result.skipped;
      result.series.push_back(std::move(c));
      continue;
    }
    // Signed "how much worse": positive = moved the bad way.
    double rel = 0.0;
    if (base.mean != 0.0) {
      rel = (cur->mean - base.mean) / std::fabs(base.mean);
      if (base.higherIsBetter) rel = -rel;
    }
    c.relativeDelta = rel;
    // CI test: does the current interval exclude the baseline mean?
    const bool ciExcludes =
        base.mean < cur->ciLo || base.mean > cur->ciHi;
    // An exact series (a ratio-scale series whose baseline and current CIs
    // both have zero width, e.g. a work counter) has no noise for the
    // threshold to absorb: any move in its worse direction regresses.
    const bool exact = !base.wallClock && base.ciLo == base.ciHi &&
                       cur->ciLo == cur->ciHi;
    const double worseBy = base.higherIsBetter ? base.mean - cur->mean
                                               : cur->mean - base.mean;
    const bool worse = exact ? worseBy > 0.0 : rel > threshold;
    const bool better = exact ? worseBy < 0.0 : rel < -threshold;
    if (worse && ciExcludes) {
      c.verdict = Verdict::kRegressed;
      c.detail = exact ? "exact series moved from " + fmtDouble(base.mean) +
                             " to " + fmtDouble(cur->mean)
                       : fmtPercent(rel) + " worse, CI [" +
                             fmtDouble(cur->ciLo) + ", " +
                             fmtDouble(cur->ciHi) + "] excludes baseline " +
                             fmtDouble(base.mean);
      ++result.regressions;
    } else if (better && ciExcludes) {
      c.verdict = Verdict::kImproved;
      c.detail = fmtPercent(-rel) + " better";
      ++result.improvements;
    } else {
      c.verdict = Verdict::kOk;
      c.detail = ciExcludes ? "within threshold" : "within CI";
    }
    result.series.push_back(std::move(c));
  }
  return result;
}

std::string renderCompareText(const BenchDoc& baseline,
                              const BenchDoc& current,
                              const CompareResult& result) {
  std::string out;
  char line[512];
  std::snprintf(line, sizeof(line),
                "bench-compare: %s (suite %s)\n  baseline: %s (git %.10s)\n"
                "  current:  %s (git %.10s)\n",
                current.benchmark.c_str(), current.suite.c_str(),
                baseline.sourcePath.empty() ? "<inline>"
                                            : baseline.sourcePath.c_str(),
                baseline.gitSha.c_str(),
                current.sourcePath.empty() ? "<inline>"
                                           : current.sourcePath.c_str(),
                current.gitSha.c_str());
  out += line;
  std::snprintf(line, sizeof(line), "  %-34s %12s %12s %9s  %s\n", "series",
                "baseline", "current", "delta", "verdict");
  out += line;
  for (const SeriesComparison& c : result.series) {
    std::snprintf(line, sizeof(line), "  %-34s %12.6g %12.6g %9s  %-9s %s\n",
                  c.name.c_str(), c.baselineMean, c.currentMean,
                  c.verdict == Verdict::kMissing
                      ? "-"
                      : fmtPercent(c.relativeDelta).c_str(),
                  verdictTag(c.verdict), c.detail.c_str());
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "  %zu regressed, %zu improved, %zu skipped, %zu missing%s\n",
                result.regressions, result.improvements, result.skipped,
                result.missing,
                result.checksFailed ? ", CHECKS FAILED in current run" : "");
  out += line;
  return out;
}

std::string renderTrendReport(std::vector<BenchDoc> docs, double threshold,
                              bool html) {
  // Group by (benchmark, suite); order within a group by creation time so
  // the oldest doc is the baseline and the newest is "current".
  std::map<std::string, std::vector<BenchDoc>> groups;
  for (BenchDoc& d : docs) {
    groups[d.benchmark + " / " + (d.suite.empty() ? "-" : d.suite)]
        .push_back(std::move(d));
  }
  std::string out;
  if (html) {
    out += "<!doctype html>\n<html><head><meta charset=\"utf-8\">"
           "<title>openfill bench trends</title><style>"
           "body{font-family:monospace} table{border-collapse:collapse} "
           "td,th{border:1px solid #999;padding:2px 8px;text-align:right} "
           "th{background:#eee} td.name{text-align:left} "
           ".regressed{background:#fbb} .improved{background:#bfb}"
           "</style></head><body>\n<h1>openfill bench trends</h1>\n";
  } else {
    out += "# openfill bench trends\n";
  }
  for (auto& [key, group] : groups) {
    std::stable_sort(group.begin(), group.end(),
                     [](const BenchDoc& a, const BenchDoc& b) {
                       return a.createdUnix < b.createdUnix;
                     });
    const BenchDoc& base = group.front();
    const BenchDoc& cur = group.back();
    const CompareResult cmp = compare(base, cur, threshold);
    char line[512];
    if (html) {
      out += "<h2>";
      appendHtmlEscaped(out, key);
      std::snprintf(line, sizeof(line), " (%zu runs)</h2>\n", group.size());
      out += line;
      out += "<table><tr><th>series</th><th>oldest</th><th>newest</th>"
             "<th>delta</th><th>verdict</th></tr>\n";
      for (const SeriesComparison& c : cmp.series) {
        const char* cls = c.verdict == Verdict::kRegressed ? " class=\"regressed\""
                          : c.verdict == Verdict::kImproved ? " class=\"improved\""
                                                            : "";
        out += "<tr><td class=\"name\">";
        appendHtmlEscaped(out, c.name);
        std::snprintf(line, sizeof(line),
                      "</td><td>%s</td><td>%s</td><td%s>%s</td><td%s>%s</td>"
                      "</tr>\n",
                      fmtDouble(c.baselineMean).c_str(),
                      fmtDouble(c.currentMean).c_str(), cls,
                      c.verdict == Verdict::kMissing
                          ? "-"
                          : fmtPercent(c.relativeDelta).c_str(),
                      cls, verdictTag(c.verdict));
        out += line;
      }
      out += "</table>\n";
    } else {
      std::snprintf(line, sizeof(line), "\n## %s (%zu runs)\n\n", key.c_str(),
                    group.size());
      out += line;
      out += "| series | oldest | newest | delta | verdict |\n";
      out += "|---|---:|---:|---:|---|\n";
      for (const SeriesComparison& c : cmp.series) {
        std::snprintf(line, sizeof(line), "| %s | %s | %s | %s | %s |\n",
                      c.name.c_str(), fmtDouble(c.baselineMean).c_str(),
                      fmtDouble(c.currentMean).c_str(),
                      c.verdict == Verdict::kMissing
                          ? "-"
                          : fmtPercent(c.relativeDelta).c_str(),
                      verdictTag(c.verdict));
        out += line;
      }
    }
  }
  if (html) out += "</body></html>\n";
  return out;
}

}  // namespace ofl::bench
