/**
 * @file
 * Structured experiment results: one document type for every harness.
 *
 * Legacy bench mains each hand-rolled printf tables and ad-hoc JSON;
 * a Result instead collects tables, series, scalar metrics, metric
 * groups, and free-text notes in presentation order, and carries the
 * provenance of the run (experiment id, config digest, thread count,
 * sample budget). ReportWriter renders the same document either as
 * the paper-style text tables (matching the legacy harness output) or
 * as one canonical JSON schema ("fpraker-result-v1") that
 * scripts/check_result_schema.py validates.
 */

#ifndef FPRAKER_API_RESULT_H
#define FPRAKER_API_RESULT_H

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "api/json.h"

namespace fpraker {
namespace api {

/** One scalar metric: integer, double (with print precision), text,
 *  or boolean. */
struct MetricValue
{
    enum class Kind { Int, Double, Text, Bool };
    Kind kind = Kind::Int;
    int64_t i = 0;
    double d = 0.0;
    int precision = -1; //!< Fixed digits for Double; -1 = shortest.
    bool b = false;
    std::string s;

    static MetricValue of(int64_t v);
    static MetricValue of(uint64_t v);
    static MetricValue of(int v) { return of(static_cast<int64_t>(v)); }
    static MetricValue of(double v, int precision = -1);
    static MetricValue of(std::string v);
    static MetricValue of(const char *v) { return of(std::string(v)); }
    static MetricValue of(bool v);

    JsonValue toJson() const;
};

/** A named, ordered bundle of metrics (one JSON sub-object). */
struct MetricGroup
{
    std::string name;
    std::vector<std::pair<std::string, MetricValue>> metrics;

    template <typename T>
    MetricGroup &
    metric(const std::string &key, T v)
    {
        metrics.emplace_back(key, MetricValue::of(v));
        return *this;
    }

    MetricGroup &
    metric(const std::string &key, double v, int precision)
    {
        metrics.emplace_back(key, MetricValue::of(v, precision));
        return *this;
    }
};

/** One printed table: headers + pre-formatted cell strings. */
struct ResultTable
{
    std::string name;    //!< Slug used in the JSON document.
    std::string caption; //!< Optional line printed above the table.
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;

    ResultTable &addRow(std::vector<std::string> row);
};

/** A named numeric series (one figure line/bar group). */
struct ResultSeries
{
    std::string name;
    std::vector<std::string> labels;
    std::vector<double> values;
};

/**
 * The structured result of one experiment. Identity and provenance
 * fields are filled by the driver (from the registry entry and the
 * Session); the experiment body only adds content.
 */
class Result
{
  public:
    // ------------------------------------------------------- identity
    std::string experiment;  //!< Registry id, e.g. "fig11".
    std::string display;     //!< Banner label, e.g. "Fig. 11".
    std::string title;
    std::string expectation; //!< The paper's expected shape.
    bool ok = true;          //!< False = the experiment failed a gate.

    // ----------------------------------------------------- provenance
    std::string configDigest; //!< Hex digest over the session variants.
    int threads = 0;
    int sampleSteps = 0;
    /**
     * The bodies the run executed on, slab::simdLevel(): "sse2", or
     * "scalar" when FPRAKER_SIMD=scalar pins them or the build lacks
     * SSE2. Filled by the driver. Provenance only — the determinism
     * contract says both produce the same bytes, so the level must
     * never be part of the fingerprint.
     */
    std::string simdLevel;
    std::vector<std::string> variants;
    /**
     * True when this document was served from the ResultCache instead
     * of simulated (src/serve/). Always false for documents a run
     * produces directly; the serve layer patches it on a cache hit.
     * Provenance only — never part of the fingerprint.
     */
    bool cached = false;

    /**
     * Milliseconds this result finished past its serve-layer
     * deadline (0 = met or none). Set only by the JobScheduler on
     * the submitter's copy of an overrunning job's document — the
     * cached copy stays clean, so the field never perturbs cache
     * byte-stability. Rendered as provenance.deadline_overrun_ms
     * only when positive. Provenance only — never fingerprinted.
     */
    int deadlineOverrunMs = 0;

    /**
     * Opt-in obs-registry snapshot (src/obs/metrics.h), rendered as a
     * top-level "telemetry" object only when hasTelemetry is set (the
     * driver sets it for `fpraker run --telemetry`). Opt-in because
     * counter values depend on process history (how warm the memo
     * and caches already are), so unconditional rendering would break
     * the serve layer's document byte-identity. Telemetry only —
     * never part of the fingerprint.
     */
    JsonValue telemetry;
    bool hasTelemetry = false;

    // -------------------------------------------------------- content
    /** Append a table (rendered in insertion order). */
    ResultTable &table(const std::string &name,
                       std::vector<std::string> headers);
    /** Append a free-text note (rendered in insertion order). */
    void note(const std::string &text);
    /** Append a named metric group (JSON sub-object). */
    MetricGroup &group(const std::string &name);
    /** Add one top-level scalar metric. */
    template <typename T>
    void
    scalar(const std::string &key, T v)
    {
        scalars_.emplace_back(key, MetricValue::of(v));
    }
    void
    scalar(const std::string &key, double v, int precision)
    {
        scalars_.emplace_back(key, MetricValue::of(v, precision));
    }
    /** Add a named numeric series. */
    ResultSeries &addSeries(const std::string &name,
                            std::vector<std::string> labels,
                            std::vector<double> values);
    /** Mark the experiment failed (exit status 1) with a note. */
    void fail(const std::string &why);

    /**
     * Stable digest (FNV-1a) of the experiment's content — tables,
     * series, scalars, metric groups, and notes, never provenance.
     * The determinism guarantee makes this identical whether the
     * experiment ran serially or sharded (any thread count, `run
     * --all` serial or parallel); scripts/check_fingerprints.py and
     * CI compare the emitted values across modes.
     */
    uint64_t fingerprint() const;

    const std::deque<ResultTable> &tables() const { return tables_; }
    const std::vector<std::string> &notes() const { return notes_; }
    const std::deque<MetricGroup> &groups() const { return groups_; }
    const std::vector<std::pair<std::string, MetricValue>> &
    scalars() const
    {
        return scalars_;
    }
    const std::deque<ResultSeries> &series() const { return series_; }

    /** The canonical JSON document ("fpraker-result-v1"). */
    JsonValue toJson() const;

    /** Presentation order of tables and notes. */
    struct DisplayItem
    {
        enum class Kind { Table, Note } kind;
        size_t index;
    };
    const std::vector<DisplayItem> &displayOrder() const
    {
        return order_;
    }

  private:
    // Deques, not vectors: table()/group()/addSeries() hand out
    // references that experiments hold across further insertions
    // (fig01 fills two tables in one loop), so growth must never
    // relocate existing elements.
    std::deque<ResultTable> tables_;
    std::vector<std::string> notes_;
    std::deque<MetricGroup> groups_;
    std::vector<std::pair<std::string, MetricValue>> scalars_;
    std::deque<ResultSeries> series_;
    std::vector<DisplayItem> order_;
};

/** Renders Result documents: legacy-style text or canonical JSON. */
class ReportWriter
{
  public:
    /** Banner + captioned tables + notes, like the legacy harnesses. */
    static void print(const Result &r);
    /** Render the text report to a string (what print() writes). */
    static std::string renderText(const Result &r);
    /** The canonical JSON text (toJson().dump() + newline). */
    static std::string renderJson(const Result &r);
    /** Write renderJson to @p path; panics if the file can't open. */
    static void writeJson(const Result &r, const std::string &path);
};

} // namespace api
} // namespace fpraker

#endif // FPRAKER_API_RESULT_H
