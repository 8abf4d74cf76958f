/* C API for the DPZ compressor.
 *
 * Mirrors the embedding surface real scientific compressors (SZ, ZFP)
 * expose so DPZ can be called from C, Fortran (via ISO_C_BINDING), or an
 * I/O-library filter. The API is a thin shim over the C++ core: no
 * exceptions cross the boundary (errors become status codes + a
 * per-thread message), and all buffers are caller-visible malloc'd
 * memory released with dpz_free().
 *
 * Usage:
 *   dpz_options opt;
 *   dpz_options_default(&opt);
 *   opt.tve = 0.99999;
 *   unsigned char* archive = NULL; size_t archive_size = 0;
 *   size_t dims[2] = {1800, 3600};
 *   int rc = dpz_compress_float(data, dims, 2, &opt,
 *                               &archive, &archive_size);
 *   ...
 *   float* out = NULL; size_t out_count = 0;
 *   rc = dpz_decompress_float(archive, archive_size, &out, &out_count);
 *   dpz_free(archive); dpz_free(out);
 */
#ifndef DPZ_C_H_
#define DPZ_C_H_

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/* Status codes. Values mirror dpz::StatusCode (util/error.h) so a status
 * survives the C boundary unchanged. DPZ_ERR_FORMAT is the recoverable
 * "malformed archive" status: decoding untrusted bytes either succeeds or
 * returns it — never crashes. DPZ_ERR_CHECKSUM is its format-v2
 * refinement (a stored CRC32C did not match the bytes). DPZ_PARTIAL is
 * not an error: a best-effort chunked decode completed but lost frames —
 * the output is valid, with lost frames holding the fill value.
 * DPZ_ERR_RESOURCE, DPZ_ERR_DEADLINE, and DPZ_ERR_CANCELLED report
 * resource-governance outcomes (options max_memory_bytes / deadline_ms /
 * cancel): the operation was refused or aborted cleanly, no output was
 * produced, and retrying with a larger budget / later deadline is
 * legitimate — the input bytes are not the problem. */
enum {
  DPZ_OK = 0,
  DPZ_ERR_INVALID_ARGUMENT = 1,
  DPZ_ERR_FORMAT = 2,
  DPZ_ERR_INTERNAL = 3,
  DPZ_ERR_IO = 4,
  DPZ_ERR_NUMERICAL = 5,
  DPZ_ERR_CHECKSUM = 6,
  DPZ_PARTIAL = 7,
  DPZ_ERR_RESOURCE = 8,
  DPZ_ERR_DEADLINE = 9,
  DPZ_ERR_CANCELLED = 10
};

/* Short stable name for a status code ("ok", "format", ...). */
const char* dpz_status_name(int code);

/* Scheme selectors (paper SS V-A). */
enum {
  DPZ_SCHEME_LOOSE = 0,  /* DPZ-l: P = 1e-3, 1-byte codes */
  DPZ_SCHEME_STRICT = 1  /* DPZ-s: P = 1e-4, 2-byte codes */
};

/* k-selection methods (Algorithm 1). */
enum {
  DPZ_SELECT_TVE = 0,      /* explained-variance threshold */
  DPZ_SELECT_KNEE_1D = 1,  /* knee point, 1-D interpolation */
  DPZ_SELECT_KNEE_POLY = 2 /* knee point, polynomial fit */
};

/* ---- Cooperative cancellation -------------------------------------------
 *
 * A cancel token is shared between the thread driving a compression or
 * decompression and any thread that wants to stop it. Attach the token
 * to dpz_options.cancel, start the operation, and call dpz_cancel() from
 * anywhere: the operation observes the request at its next checkpoint
 * (stage boundaries and between loop strips — bounded latency) and
 * returns DPZ_ERR_CANCELLED with no output. Tokens are reusable across
 * calls until freed, but a cancelled token stays cancelled. */
typedef struct dpz_cancel_token dpz_cancel_token;

/* Creates a token (free with dpz_cancel_token_free; NULL on OOM). */
dpz_cancel_token* dpz_cancel_token_new(void);

/* Releases a token. Safe on NULL. Operations still running with this
 * token must not outlive it. */
void dpz_cancel_token_free(dpz_cancel_token* token);

/* Requests cancellation. Thread-safe, idempotent, safe on NULL. */
void dpz_cancel(dpz_cancel_token* token);

/* 1 when cancellation has been requested, else 0 (0 on NULL). */
int dpz_cancel_requested(const dpz_cancel_token* token);

/* Compression options.
 *
 * ABI note: this struct may grow at the end in future releases (the
 * `threads` field was appended this way), which changes sizeof(dpz_options)
 * and is an ABI break for clients holding the old layout. Always compile
 * against the header that matches the linked library, and ALWAYS initialize
 * the struct with dpz_options_default() before setting fields — never by
 * memset or field-by-field assignment — so newly appended fields get their
 * defaults instead of garbage. */
typedef struct dpz_options {
  int scheme;           /* DPZ_SCHEME_* */
  int selection;        /* DPZ_SELECT_* */
  double tve;           /* threshold for DPZ_SELECT_TVE */
  int use_sampling;     /* Algorithm 2 on/off */
  double error_bound;   /* 0 = scheme default */
  double dct_keep_fraction; /* 1.0 = no truncation */
  int zlib_level;       /* 1..9 */
  /* Worker threads for the hot loops; 0 = hardware concurrency.
   * Archives are bit-identical for every value — the thread count is a
   * wall-clock knob only, never a format parameter (the determinism
   * tests assert this). */
  int threads;
  /* Damage handling for dpz_chunked_decompress_float. 0 (strict): the
   * first damaged frame fails the whole decode. 1 (best effort): intact
   * frames decode normally, damaged frames are filled with `fill_value`
   * and reported via dpz_decode_report / DPZ_PARTIAL. */
  int best_effort;
  /* Value written into lost frames in best-effort mode (default 0.0). */
  double fill_value;
  /* When non-NULL: telemetry is enabled for the duration of the call and
   * the recorded spans are written to this path as Chrome trace-event
   * JSON (loadable in Perfetto) when the call completes. Tracing never
   * changes archive bytes. A failed trace write does NOT fail the call;
   * it leaves a note in dpz_last_error(). Appended per the ABI-growth
   * policy above — dpz_options_default() sets it to NULL. */
  const char* trace_path;
  /* ---- Resource governance (appended per the ABI-growth policy) ------
   *
   * Limits never change output bytes: a governed call either produces
   * the identical archive/reconstruction or fails with DPZ_ERR_RESOURCE
   * / DPZ_ERR_DEADLINE / DPZ_ERR_CANCELLED and no output. */
  /* Peak-memory budget in bytes for the call's working set (matrices,
   * section buffers, the output); 0 = unlimited. Decodes additionally
   * price the header-claimed geometry against the budget up front, so a
   * forged archive claiming terabytes is rejected before any large
   * allocation (DPZ_ERR_RESOURCE). */
  uint64_t max_memory_bytes;
  /* Wall-clock deadline in milliseconds from the start of the call;
   * 0 = none. Expiry is observed at the next checkpoint and returns
   * DPZ_ERR_DEADLINE. */
  double deadline_ms;
  /* Cooperative cancel token (see dpz_cancel_token_new); NULL = none.
   * The token must stay alive for the duration of the call. */
  const dpz_cancel_token* cancel;
  /* ---- Frame parity (appended per the ABI-growth policy) -------------
   *
   * Reed-Solomon erasure coding for dpz_chunked_compress_float: groups
   * of parity_k compressed frames get parity_m parity shards, so up to
   * parity_m lost frames per group reconstruct byte-exactly on decode
   * (reported in dpz_decode_report.frames_repaired). parity_m = 0
   * (default) disables parity and writes the v2 container byte
   * layout. Requires parity_k >= 1 and parity_k + parity_m <= 255 when
   * enabled. */
  int parity_k;
  int parity_m;
} dpz_options;

/* Fills `opt` with the library defaults (strict scheme, five-nine TVE). */
void dpz_options_default(dpz_options* opt);

/* Compresses `count(dims)` floats of rank `rank` (1..4). On success the
 * archive is malloc'd into *archive / *archive_size. Returns DPZ_OK or an
 * error code; on error the outputs are untouched. */
int dpz_compress_float(const float* data, const size_t* dims, size_t rank,
                       const dpz_options* opt, unsigned char** archive,
                       size_t* archive_size);

/* Double-precision variant. */
int dpz_compress_double(const double* data, const size_t* dims, size_t rank,
                        const dpz_options* opt, unsigned char** archive,
                        size_t* archive_size);

/* Decompresses a float archive. *out receives a malloc'd buffer of
 * *out_count floats (the flattened data); use dpz_archive_shape to
 * recover the dimensions. */
int dpz_decompress_float(const unsigned char* archive, size_t archive_size,
                         float** out, size_t* out_count);

/* Double-precision variant (archive must hold f64 data). */
int dpz_decompress_double(const unsigned char* archive, size_t archive_size,
                          double** out, size_t* out_count);

/* Decompression with an explicit worker-thread count (0 = hardware
 * concurrency). The reconstruction is bit-identical to the plain
 * variants for every thread count. */
int dpz_decompress_float_mt(const unsigned char* archive,
                            size_t archive_size, int threads, float** out,
                            size_t* out_count);
int dpz_decompress_double_mt(const unsigned char* archive,
                             size_t archive_size, int threads, double** out,
                             size_t* out_count);

/* Options-aware decompression: honors `threads`, `trace_path`, and the
 * resource-governance fields (max_memory_bytes / deadline_ms / cancel).
 * `opt` may be NULL, which is equivalent to the plain variants. The
 * reconstruction is bit-identical to every other variant. */
int dpz_decompress_float_ex(const unsigned char* archive,
                            size_t archive_size, const dpz_options* opt,
                            float** out, size_t* out_count);
int dpz_decompress_double_ex(const unsigned char* archive,
                             size_t archive_size, const dpz_options* opt,
                             double** out, size_t* out_count);

/* Per-frame outcome of a chunked decode (see dpz_chunked_decompress_float).
 * first_lost_frame is (size_t)-1 when no frame was lost.
 *
 * ABI note: like dpz_options, this struct may grow at the end; always
 * zero-populate it through the API, never by layout assumptions. */
typedef struct dpz_decode_report {
  size_t frames_total;
  size_t frames_recovered;
  size_t frames_lost;
  size_t first_lost_frame;
  /* Message of the first lost frame's error ("" when none), truncated. */
  char first_error[240];
  /* Damaged frames rebuilt byte-exactly from Reed-Solomon parity
   * (appended per the ABI-growth policy). Repaired frames also count in
   * frames_recovered; only losses beyond the parity budget appear in
   * frames_lost. */
  size_t frames_repaired;
} dpz_decode_report;

/* Compresses floats into a chunked container of `chunk_values`-sized
 * frames (format "DZC2", or "DZC3" when opt->parity_m > 0 adds
 * Reed-Solomon frame parity). `opt` is required (initialize with
 * dpz_options_default, as with dpz_compress_float); `threads`,
 * `parity_k`/`parity_m`, and the governance fields apply. */
int dpz_chunked_compress_float(const float* data, const size_t* dims,
                               size_t rank, size_t chunk_values,
                               const dpz_options* opt,
                               unsigned char** archive,
                               size_t* archive_size);

/* Decompresses a chunked container (format "DZCK"/"DZC2"/"DZC3"). `opt`
 * may be NULL for strict defaults; otherwise `threads`, `best_effort`,
 * and `fill_value` apply. `report` may be NULL. Returns DPZ_OK on a full
 * reconstruction, DPZ_PARTIAL when best-effort lost frames (the output
 * buffer is still produced, lost frames filled), or an error code with
 * the outputs untouched. Damaged frames covered by parity repair
 * transparently in both policies (report->frames_repaired). */
int dpz_chunked_decompress_float(const unsigned char* container,
                                 size_t container_size,
                                 const dpz_options* opt, float** out,
                                 size_t* out_count,
                                 dpz_decode_report* report);

/* Double-precision variant: identical semantics, output widened to
 * doubles (containers store f32 frames; fill_value is applied without
 * narrowing). */
int dpz_chunked_decompress_double(const unsigned char* container,
                                  size_t container_size,
                                  const dpz_options* opt, double** out,
                                  size_t* out_count,
                                  dpz_decode_report* report);

/* Reads the shape of an archive. Like dpz_inspect it parses the whole
 * archive, so a header-only prefix, a truncated archive or trailing bytes
 * are rejected as malformed. `dims` must hold at least 4 entries; *rank
 * receives the actual rank. */
int dpz_archive_shape(const unsigned char* archive, size_t archive_size,
                      size_t* dims, size_t* rank);

/* 1 if the archive holds double-precision data, 0 for single, negative
 * error code on a malformed archive (the whole archive is required, as
 * for dpz_archive_shape). */
int dpz_archive_is_double(const unsigned char* archive,
                          size_t archive_size);

/* ---- Telemetry -----------------------------------------------------------
 *
 * Process-wide switch over the span recorder and metrics registry
 * (src/obs). Off by default; when off every instrumented site costs a
 * single relaxed atomic load. Enabling telemetry never changes archive
 * bytes. See docs/OBSERVABILITY.md for the span/metric taxonomy. */

/* Turns telemetry recording on (non-zero) or off (0). */
void dpz_telemetry_enable(int enabled);

/* 1 when telemetry recording is currently on, else 0. */
int dpz_telemetry_enabled(void);

/* Counter snapshot of the process-wide metrics registry. Field names
 * mirror the registered counter names (docs/OBSERVABILITY.md).
 *
 * ABI note: like dpz_options, this struct may grow at the end in future
 * releases; always populate it with dpz_metrics_snapshot(). */
typedef struct dpz_metrics {
  uint64_t compress_calls;
  uint64_t decompress_calls;
  uint64_t bytes_in;
  uint64_t bytes_archive;
  uint64_t bytes_decoded;
  uint64_t bytes_stage12;
  uint64_t bytes_stage3;
  uint64_t bytes_zlib_payload;
  uint64_t bytes_side;
  uint64_t quantizer_values;
  uint64_t quantizer_saturated;
  uint64_t outlier_count;
  uint64_t stored_raw_fallbacks;
  uint64_t crc_checks;
  uint64_t crc_failures;
  uint64_t io_read_eintr;
  uint64_t io_write_eintr;
  uint64_t io_short_reads;
  uint64_t io_short_writes;
  uint64_t frames_encoded;
  uint64_t frames_decoded;
  uint64_t frames_recovered;
  uint64_t frames_lost;
  /* Resource-governance outcomes (appended per the ABI-growth policy):
   * decodes refused by the pre-flight admission check, operations
   * aborted by a cancel request, and operations aborted by deadline
   * expiry. */
  uint64_t admission_rejected;
  uint64_t cancelled;
  uint64_t deadline_exceeded;
  /* Frame-parity outcomes (appended per the ABI-growth policy): damaged
   * frames rebuilt byte-exactly from Reed-Solomon parity, and damaged
   * frames whose loss exceeded the parity budget. */
  uint64_t frames_repaired;
  uint64_t repair_failed;
} dpz_metrics;

/* Copies the current counter values into *out. Returns DPZ_OK, or
 * DPZ_ERR_INVALID_ARGUMENT when out is NULL. */
int dpz_metrics_snapshot(dpz_metrics* out);

/* Renders the full registry (counters AND histograms, including bucket
 * arrays and per-histogram sums) as one JSON object into a malloc'd
 * NUL-terminated string the caller frees with dpz_free(). Returns
 * DPZ_OK, DPZ_ERR_INVALID_ARGUMENT on NULL, DPZ_ERR_RESOURCE on OOM. */
int dpz_metrics_json(char** text);

/* Renders the registry in the Prometheus text exposition format:
 * counters as dpz_<name>_total, histograms as dpz_<name> with the
 * cumulative le-labeled bucket ladder plus _sum/_count, each family
 * preceded by # HELP and # TYPE lines. Same ownership contract as
 * dpz_metrics_json. */
int dpz_metrics_prometheus(char** text);

/* Zeroes every counter and histogram bucket in the registry. */
void dpz_metrics_reset(void);

/* Writes the spans recorded so far to `path` as Chrome trace-event JSON.
 * Returns DPZ_OK, DPZ_ERR_INVALID_ARGUMENT on NULL, DPZ_ERR_IO when the
 * file cannot be written. */
int dpz_trace_write(const char* path);

/* Drops every span recorded so far. */
void dpz_trace_clear(void);

/* Frees any buffer returned by this API. Safe on NULL. */
void dpz_free(void* ptr);

/* Message describing the most recent error on this thread ("" if none).
 * The pointer stays valid until the next API call on the same thread. */
const char* dpz_last_error(void);

/* Human-readable diagnostic report for the most recent error recorded by
 * the structured event log (process-wide, any thread): the failing
 * event with its archive offset, frame index, section name, and active
 * span stack, followed by the flight-recorder breadcrumbs that led up
 * to it. Returns "" when no error has been recorded. The pointer stays
 * valid until the next dpz_last_error_report() call on the same thread.
 * Always available — the flight recorder captures error events even
 * with telemetry off (see docs/OBSERVABILITY.md). */
const char* dpz_last_error_report(void);

#ifdef __cplusplus
}
#endif

#endif /* DPZ_C_H_ */
