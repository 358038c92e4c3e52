#ifndef COOLAIR_OBS_TRACE_HPP
#define COOLAIR_OBS_TRACE_HPP

/**
 * @file
 * Scoped-span tracing with Chrome trace-event JSON export.
 *
 * Spans are RAII: constructing an obs::Span records the start time,
 * destruction records a complete ("ph":"X") event into the process-wide
 * Tracer.  When tracing is disabled (the default) a Span costs one
 * relaxed atomic load and nothing else.
 *
 * Tracks: each event carries a tid, a process-unique id assigned per OS
 * thread on first use; sim::JobPool names its workers' tracks ("pool
 * worker 0", ...), so the exported trace shows how a sweep or a server
 * actually parallelises.  The resulting file loads directly in
 * Perfetto / chrome://tracing.
 */

#include <atomic>
#include <cstdint>
#include <mutex>
#include <utility>
#include <ostream>
#include <string>
#include <vector>

namespace coolair {
namespace obs {

/** One complete trace event (Chrome trace-event "ph":"X"). */
struct TraceEvent
{
    std::string name;
    std::string cat;
    int64_t tsUs = 0;   ///< start, microseconds since tracer epoch
    int64_t durUs = 0;  ///< duration, microseconds
    int tid = 0;        ///< track id (see threadTrack)

    /**
     * Request correlation id (0 = none).  Spans inherit the calling
     * thread's current trace context (see TraceContextScope), so every
     * span recorded on behalf of one serve request — across the
     * connection thread, the JobPool worker, and the engine — carries
     * the same id and can be extracted as one correlated trace.
     */
    uint64_t traceId = 0;
};

/**
 * The process-wide trace-event buffer.  Thread-safe; disabled by
 * default.  Events accumulate in memory until writeJson()/clear().
 */
class Tracer
{
  public:
    static Tracer &instance();

    bool enabled() const
    {
        return _enabled.load(std::memory_order_relaxed);
    }
    void setEnabled(bool on)
    {
        _enabled.store(on, std::memory_order_relaxed);
    }

    /** Microseconds since the tracer's epoch (first use), steady clock. */
    int64_t nowUs() const;

    /** Append one complete event (no-op unless enabled). */
    void recordComplete(const std::string &name, const std::string &cat,
                        int64_t tsUs, int64_t durUs, int tid,
                        uint64_t traceId = 0);

    /** Label a track in the exported trace ("worker 0", "main", ...). */
    void nameTrack(int tid, const std::string &name);

    size_t eventCount() const;

    /**
     * Cap on buffered events (default kDefaultMaxEvents).  When the
     * buffer is full the oldest quarter is dropped (droppedEvents()
     * counts them), so a long-lived daemon with tracing on holds
     * bounded memory no matter how many requests it serves.  0 =
     * unbounded (one-shot CLI exports that want every event).
     */
    void setMaxEvents(size_t cap);
    size_t droppedEvents() const;

    static constexpr size_t kDefaultMaxEvents = size_t(1) << 20;

    /**
     * Remove and return every buffered event carrying @p traceId, in
     * recording order.  The serve layer calls this as each request
     * completes, so per-request retention is the service's bounded
     * ring, not this process-wide buffer.
     */
    std::vector<TraceEvent> takeTrace(uint64_t traceId);

    /** Copy of the registered track names (tid, name), unsorted. */
    std::vector<std::pair<int, std::string>> trackNames() const;

    /**
     * Write the buffered events as a Chrome trace-event JSON object
     * (`{"traceEvents": [...]}`), including thread_name metadata events
     * for named tracks.  Loadable in Perfetto / chrome://tracing.
     */
    void writeJson(std::ostream &os) const;

    /** Drop all buffered events and track names. */
    void clear();

  private:
    Tracer();

    std::atomic<bool> _enabled{false};
    int64_t _epochNs = 0;
    mutable std::mutex _mutex;
    std::vector<TraceEvent> _events;
    std::vector<std::pair<int, std::string>> _trackNames;
    size_t _maxEvents = kDefaultMaxEvents;
    size_t _dropped = 0;
};

/**
 * Serialize @p events (plus thread_name metadata for @p tracks) as a
 * Chrome trace-event JSON object.  The writer behind Tracer::writeJson,
 * exposed so the serve layer can export one request's extracted span
 * set as a standalone trace.  Events are stably sorted by start time
 * then track; output is deterministic for a given event set.
 */
void writeTraceEventsJson(std::ostream &os, std::vector<TraceEvent> events,
                          std::vector<std::pair<int, std::string>> tracks);

/** The calling thread's trace track id (process-unique per thread). */
int threadTrack();

/**
 * The calling thread's current trace context id (0 = none).  Spans
 * stamp this onto every event they record.
 */
uint64_t currentTraceId();

/** Set the calling thread's trace context id directly (prefer the
    RAII TraceContextScope). */
void setCurrentTraceId(uint64_t id);

/**
 * RAII trace context: while alive, every Span the calling thread
 * records carries @p id.  Restores the previous id on destruction, so
 * scopes nest.  The serve layer opens one per request on the
 * connection thread, and sim::JobPool re-opens the submitter's scope
 * on the worker thread that picks the job up — that is the whole
 * serve -> pool -> runner -> engine propagation.
 */
class TraceContextScope
{
  public:
    explicit TraceContextScope(uint64_t id) : _prev(currentTraceId())
    {
        setCurrentTraceId(id);
    }
    ~TraceContextScope() { setCurrentTraceId(_prev); }

    TraceContextScope(const TraceContextScope &) = delete;
    TraceContextScope &operator=(const TraceContextScope &) = delete;

  private:
    uint64_t _prev;
};

/**
 * RAII scoped span: records a complete event covering the scope's
 * lifetime.  Near-free when tracing is disabled.
 */
class Span
{
  public:
    Span(const char *name, const char *cat = "sim")
    {
        Tracer &t = Tracer::instance();
        if (t.enabled()) {
            _name = name;
            _cat = cat;
            _startUs = t.nowUs();
            _active = true;
        }
    }

    ~Span()
    {
        if (_active) {
            Tracer &t = Tracer::instance();
            int64_t end = t.nowUs();
            t.recordComplete(_name, _cat, _startUs, end - _startUs,
                             threadTrack(), currentTraceId());
        }
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    const char *_name = nullptr;
    const char *_cat = nullptr;
    int64_t _startUs = 0;
    bool _active = false;
};

} // namespace obs
} // namespace coolair

#endif // COOLAIR_OBS_TRACE_HPP
