#include "api/result.h"

#include <cstdio>
#include <cstring>

#include "common/fnv.h"
#include "common/logging.h"
#include "common/table.h"

namespace fpraker {
namespace api {

MetricValue
MetricValue::of(int64_t v)
{
    MetricValue m;
    m.kind = Kind::Int;
    m.i = v;
    return m;
}

MetricValue
MetricValue::of(uint64_t v)
{
    return of(static_cast<int64_t>(v));
}

MetricValue
MetricValue::of(double v, int precision)
{
    MetricValue m;
    m.kind = Kind::Double;
    m.d = v;
    m.precision = precision;
    return m;
}

MetricValue
MetricValue::of(std::string v)
{
    MetricValue m;
    m.kind = Kind::Text;
    m.s = std::move(v);
    return m;
}

MetricValue
MetricValue::of(bool v)
{
    MetricValue m;
    m.kind = Kind::Bool;
    m.b = v;
    return m;
}

JsonValue
MetricValue::toJson() const
{
    switch (kind) {
      case Kind::Int:
        return JsonValue(i);
      case Kind::Double:
        return JsonValue(d, precision);
      case Kind::Text:
        return JsonValue(s);
      case Kind::Bool:
        return JsonValue(b);
    }
    return JsonValue();
}

ResultTable &
ResultTable::addRow(std::vector<std::string> row)
{
    panic_if(row.size() != headers.size(),
             "table '%s': row arity %zu != header arity %zu",
             name.c_str(), row.size(), headers.size());
    rows.push_back(std::move(row));
    return *this;
}

ResultTable &
Result::table(const std::string &name, std::vector<std::string> headers)
{
    ResultTable t;
    t.name = name;
    t.headers = std::move(headers);
    tables_.push_back(std::move(t));
    order_.push_back({DisplayItem::Kind::Table, tables_.size() - 1});
    return tables_.back();
}

void
Result::note(const std::string &text)
{
    notes_.push_back(text);
    order_.push_back({DisplayItem::Kind::Note, notes_.size() - 1});
}

MetricGroup &
Result::group(const std::string &name)
{
    for (MetricGroup &g : groups_)
        if (g.name == name)
            return g;
    MetricGroup g;
    g.name = name;
    groups_.push_back(std::move(g));
    return groups_.back();
}

ResultSeries &
Result::addSeries(const std::string &name,
                  std::vector<std::string> labels,
                  std::vector<double> values)
{
    panic_if(labels.size() != values.size(),
             "series '%s': %zu labels vs %zu values", name.c_str(),
             labels.size(), values.size());
    ResultSeries s;
    s.name = name;
    s.labels = std::move(labels);
    s.values = std::move(values);
    series_.push_back(std::move(s));
    return series_.back();
}

void
Result::fail(const std::string &why)
{
    ok = false;
    note("FAILED: " + why);
}

namespace {

std::string
canonicalMetric(const MetricValue &v)
{
    switch (v.kind) {
      case MetricValue::Kind::Int:
        return "i" + std::to_string(v.i);
      case MetricValue::Kind::Double: {
        uint64_t bits;
        std::memcpy(&bits, &v.d, sizeof(bits));
        return "d" + std::to_string(bits);
      }
      case MetricValue::Kind::Text:
        return "s" + v.s;
      case MetricValue::Kind::Bool:
        return v.b ? "b1" : "b0";
    }
    return "";
}

} // namespace

uint64_t
Result::fingerprint() const
{
    Fnv64 f;
    f.add(experiment);
    f.add(std::string(ok ? "ok" : "failed"));
    for (const auto &[key, value] : scalars_) {
        f.add(key);
        f.add(canonicalMetric(value));
    }
    for (const MetricGroup &g : groups_) {
        f.add(g.name);
        for (const auto &[key, value] : g.metrics) {
            f.add(key);
            f.add(canonicalMetric(value));
        }
    }
    for (const ResultTable &t : tables_) {
        f.add(t.name);
        for (const std::string &h : t.headers)
            f.add(h);
        for (const auto &row : t.rows)
            for (const std::string &cell : row)
                f.add(cell);
    }
    for (const ResultSeries &s : series_) {
        f.add(s.name);
        for (const std::string &l : s.labels)
            f.add(l);
        for (double v : s.values)
            f.add(v);
    }
    for (const std::string &n : notes_)
        f.add(n);
    return f.value();
}

JsonValue
Result::toJson() const
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", "fpraker-result-v1");
    doc.set("experiment", experiment);
    doc.set("title", title);
    doc.set("expectation", expectation);
    doc.set("ok", ok);
    {
        char buf[20];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(fingerprint()));
        doc.set("fingerprint", std::string(buf));
    }

    JsonValue prov = JsonValue::object();
    prov.set("config_digest", configDigest);
    prov.set("threads", threads);
    prov.set("sample_steps", sampleSteps);
    prov.set("simd_level", simdLevel);
    JsonValue vars = JsonValue::array();
    for (const std::string &v : variants)
        vars.push(v);
    prov.set("variants", std::move(vars));
    prov.set("cached", cached);
    // Only when positive: the common (met-deadline) rendering must
    // stay byte-identical to pre-deadline documents.
    if (deadlineOverrunMs > 0)
        prov.set("deadline_overrun_ms", deadlineOverrunMs);
    doc.set("provenance", std::move(prov));

    JsonValue scalars = JsonValue::object();
    for (const auto &[key, value] : scalars_)
        scalars.set(key, value.toJson());
    doc.set("scalars", std::move(scalars));

    JsonValue groups = JsonValue::object();
    for (const MetricGroup &g : groups_) {
        JsonValue obj = JsonValue::object();
        for (const auto &[key, value] : g.metrics)
            obj.set(key, value.toJson());
        groups.set(g.name, std::move(obj));
    }
    doc.set("groups", std::move(groups));

    JsonValue tables = JsonValue::array();
    for (const ResultTable &t : tables_) {
        JsonValue obj = JsonValue::object();
        obj.set("name", t.name);
        if (!t.caption.empty())
            obj.set("caption", t.caption);
        JsonValue headers = JsonValue::array();
        for (const std::string &h : t.headers)
            headers.push(h);
        obj.set("headers", std::move(headers));
        JsonValue rows = JsonValue::array();
        for (const auto &row : t.rows) {
            JsonValue r = JsonValue::array();
            for (const std::string &cell : row)
                r.push(cell);
            rows.push(std::move(r));
        }
        obj.set("rows", std::move(rows));
        tables.push(std::move(obj));
    }
    doc.set("tables", std::move(tables));

    JsonValue series = JsonValue::array();
    for (const ResultSeries &s : series_) {
        JsonValue obj = JsonValue::object();
        obj.set("name", s.name);
        JsonValue labels = JsonValue::array();
        for (const std::string &l : s.labels)
            labels.push(l);
        obj.set("labels", std::move(labels));
        JsonValue values = JsonValue::array();
        for (double v : s.values)
            values.push(JsonValue(v));
        obj.set("values", std::move(values));
        series.push(std::move(obj));
    }
    doc.set("series", std::move(series));

    JsonValue notes = JsonValue::array();
    for (const std::string &n : notes_)
        notes.push(n);
    doc.set("notes", std::move(notes));

    // Opt-in only (see result.h): counter values depend on process
    // history and must never perturb the default document bytes.
    if (hasTelemetry)
        doc.set("telemetry", telemetry);
    return doc;
}

std::string
ReportWriter::renderText(const Result &r)
{
    std::string out;
    out += "==================================================="
           "===========\n";
    out += r.display.empty() ? r.experiment : r.display;
    out += ": " + r.title + "\n";
    out += "paper expectation: " + r.expectation + "\n";
    out += "==================================================="
           "===========\n";

    bool first = true;
    for (const Result::DisplayItem &item : r.displayOrder()) {
        if (item.kind == Result::DisplayItem::Kind::Table) {
            const ResultTable &t = r.tables()[item.index];
            if (!first)
                out += "\n";
            if (!t.caption.empty())
                out += t.caption + "\n";
            Table printer(t.headers);
            for (const auto &row : t.rows)
                printer.addRow(row);
            out += printer.render();
        } else {
            out += "\n" + r.notes()[item.index] + "\n";
        }
        first = false;
    }
    return out;
}

void
ReportWriter::print(const Result &r)
{
    std::fputs(renderText(r).c_str(), stdout);
}

std::string
ReportWriter::renderJson(const Result &r)
{
    return r.toJson().dump() + "\n";
}

void
ReportWriter::writeJson(const Result &r, const std::string &path)
{
    FILE *f = std::fopen(path.c_str(), "w");
    // A bad output path is a user error, not a simulator bug.
    fatal_if(!f, "cannot write %s", path.c_str());
    std::string text = renderJson(r);
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
}

} // namespace api
} // namespace fpraker
