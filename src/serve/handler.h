#ifndef COACHLM_SERVE_HANDLER_H_
#define COACHLM_SERVE_HANDLER_H_

#include <cstdint>

#include "common/clock.h"
#include "serve/http.h"
#include "serve/model_host.h"
#include "serve/serve_config.h"

namespace coachlm {
namespace serve {

/// \brief Everything a request handler needs, transport-free.
///
/// The handler is deliberately decoupled from sockets: tests and the
/// in-process bench call HandleRequest directly with a fabricated
/// HttpRequest and an injected clock, which is how deadline expiry,
/// hostile bodies, and fault plans get deterministic coverage without a
/// network in the loop.
struct ServeContext {
  const ServeConfig* config = nullptr;
  ModelHost* models = nullptr;
  /// Clock for deadlines + latency metrics (tests inject FakeClock).
  Clock* clock = nullptr;
  /// True once the server began draining; new requests get 503.
  bool draining = false;
};

/// \brief Routes one parsed request to its endpoint and returns the
/// response. Never throws; every failure mode — unknown route, wrong
/// method, hostile JSONL, blown deadline, torn reload artifact — maps to
/// a typed HTTP status with a JSON error body.
///
/// Endpoints:
///   GET  /healthz       liveness + live model version
///   GET  /v1/model      model metadata (version, checkpoint, backbone)
///   POST /v1/revise     JSONL of instruction pairs in, revised JSONL out
///   POST /admin/reload  hot model reload (typed failure keeps old model)
///   GET  /metrics       MetricsRegistry snapshot as JSON
///
/// \p request_id keys this request's serve.parse / serve.revise fault
/// streams: on the wire path, the accept sequence number the server drew
/// once per connection. The server, not the handler, counts responses.
HttpResponse HandleRequest(const ServeContext& context, uint64_t request_id,
                           const HttpRequest& request);

}  // namespace serve
}  // namespace coachlm

#endif  // COACHLM_SERVE_HANDLER_H_
