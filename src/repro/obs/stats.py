"""``repro stats``: summarize trace / metrics JSONL files.

Consumes anything the observability layer writes — a ``--trace-out``
event stream, a ``--metrics-out`` registry dump, or a file mixing both
record shapes — and reduces it to the quantities the paper's evaluation
argues with: coverage growth, candidate discovery rate, and validation
verdict ratios.
"""

from .tracer import EVENT_TYPES, SCHEMA_VERSION, read_jsonl, validate_record


def summarize_records(records):
    """Reduce an iterable of trace/metric records to a summary dict."""
    summary = {
        "records": 0,
        "torn_lines": 0,
        "events_by_type": {},
        "runs": 0,
        "campaigns": 0,
        "duration_s": 0.0,
        "coverage": None,
        "candidates": 0,
        "inconsistencies": 0,
        "candidate_rate": None,
        "verdicts": {},
        "verdict_ratios": {},
        "interleavings": 0,
        "seeds": 0,
        "workers": {},
        "metrics": {},
    }
    first_cov = last_cov = None
    for record in records:
        rtype = record.get("type")
        if rtype in EVENT_TYPES:
            validate_record(record)
        elif rtype not in ("metrics_header", "metric"):
            raise ValueError("unknown record type %r" % (rtype,))
        summary["records"] += 1
        by_type = summary["events_by_type"]
        by_type[rtype] = by_type.get(rtype, 0) + 1
        if rtype == "run_start":
            summary["runs"] += 1
        elif rtype == "run_end":
            run = record.get("summary", {})
            summary["campaigns"] += run.get("campaigns", 0)
            summary["duration_s"] += record.get("duration_s", 0.0)
        elif rtype == "seed_start":
            summary["seeds"] += 1
        elif rtype == "interleaving":
            summary["interleavings"] += 1
        elif rtype == "campaign":
            point = (record.get("branch_total", 0),
                     record.get("alias_total", 0))
            if first_cov is None:
                first_cov = point
            last_cov = point
        elif rtype == "candidate":
            summary["candidates"] += 1
        elif rtype == "inconsistency":
            summary["inconsistencies"] += 1
        elif rtype == "verdict":
            verdict = record.get("verdict", "?")
            summary["verdicts"][verdict] = \
                summary["verdicts"].get(verdict, 0) + 1
        elif rtype == "worker":
            status = record.get("status", "?")
            summary["workers"][status] = \
                summary["workers"].get(status, 0) + 1
        elif rtype == "metric":
            summary["metrics"][record["name"]] = {
                key: value for key, value in record.items()
                if key not in ("type", "name")}
        elif rtype == "metrics_header":
            if record.get("schema") != SCHEMA_VERSION:
                raise ValueError("unsupported metrics schema %r"
                                 % (record.get("schema"),))
        elif rtype == "metrics_snapshot":
            for name, instrument in record.get("metrics", {}).items():
                summary["metrics"][name] = {
                    key: value for key, value in instrument.items()
                    if key != "name"}
    if first_cov is not None:
        summary["coverage"] = {
            "branch_first": first_cov[0], "branch_last": last_cov[0],
            "branch_growth": last_cov[0] - first_cov[0],
            "alias_first": first_cov[1], "alias_last": last_cov[1],
            "alias_growth": last_cov[1] - first_cov[1],
        }
    if summary["campaigns"]:
        summary["candidate_rate"] = round(
            summary["candidates"] / summary["campaigns"], 4)
    total_verdicts = sum(summary["verdicts"].values())
    if total_verdicts:
        summary["verdict_ratios"] = {
            verdict: round(count / total_verdicts, 4)
            for verdict, count in sorted(summary["verdicts"].items())}
    return summary


def summarize_path(path):
    """Summarize one JSONL file written by the observability layer.

    A torn tail line (the file's writer was SIGKILLed mid-append) is
    skipped and surfaced as ``torn_lines`` in the summary instead of
    failing the whole summarization.
    """
    records, torn = read_jsonl(path)
    if torn is not None and not records:
        raise torn  # nothing but garbage: not a torn trace
    summary = summarize_records(records)
    summary["torn_lines"] = int(torn is not None)
    return summary


def _format_metric(name, data):
    if data.get("kind") == "histogram":
        count = data.get("count", 0)
        mean = data.get("sum", 0.0) / count if count else 0.0
        return "  %-32s histogram n=%d mean=%.4g" % (name, count, mean)
    return "  %-32s %s %s" % (name, data.get("kind", "?"),
                              data.get("value"))


def render_stats(summary):
    """Human-readable report for one summary dict."""
    lines = ["observability stats (%d records)" % summary["records"]]
    if summary.get("torn_lines"):
        lines.append("torn tail line(s) skipped: %d (writer was killed "
                     "mid-append)" % summary["torn_lines"])
    events = summary["events_by_type"]
    if events:
        lines.append("record types: " + ", ".join(
            "%s=%d" % (rtype, count)
            for rtype, count in sorted(events.items())))
    if summary["runs"]:
        lines.append("runs: %d  campaigns: %d  duration: %.2fs"
                     % (summary["runs"], summary["campaigns"],
                        summary["duration_s"]))
    coverage = summary["coverage"]
    if coverage is not None:
        lines.append("coverage growth: branch %d -> %d (+%d), "
                     "alias %d -> %d (+%d)"
                     % (coverage["branch_first"], coverage["branch_last"],
                        coverage["branch_growth"], coverage["alias_first"],
                        coverage["alias_last"], coverage["alias_growth"]))
    if summary["candidates"] or summary["inconsistencies"]:
        rate = "" if summary["candidate_rate"] is None else \
            " (%.4f per campaign)" % summary["candidate_rate"]
        lines.append("candidates: %d%s  confirmed inconsistencies: %d"
                     % (summary["candidates"], rate,
                        summary["inconsistencies"]))
    if summary["verdicts"]:
        lines.append("verdicts: " + ", ".join(
            "%s=%d (%.0f%%)" % (verdict, count,
                                100 * summary["verdict_ratios"][verdict])
            for verdict, count in sorted(summary["verdicts"].items())))
    if summary["workers"]:
        lines.append("worker attempts: " + ", ".join(
            "%s=%d" % (status, count)
            for status, count in sorted(summary["workers"].items())))
    if summary["metrics"]:
        lines.append("metrics (%d):" % len(summary["metrics"]))
        lines.extend(_format_metric(name, data)
                     for name, data in sorted(summary["metrics"].items()))
    return "\n".join(lines)
