/// \file serve.h
/// \brief The campaign result server: the query language over a line
///        protocol, on stdio or a blocking TCP socket.
///
/// One request per line (a query document, compact or not), one response
/// line back: strict RFC 8259 JSON, either
///
///   {"ok":true,"columns":[...],"rows":[[...],...],"matched":N,"parsed":M}
///
/// or {"ok":false,"error":"..."} — a malformed query never kills the
/// session. Responses are produced by the same run_query() the `campaign
/// query` verb uses, over the shared work pool, so a response is
/// bit-identical for every thread count and every shard layout of the same
/// logical store; concurrent clients querying one shared StoreView get
/// byte-identical answers to byte-identical questions.
///
/// A request line longer than kMaxRequestLine bytes is not read to its
/// end: the session answers {"ok":false,...} and closes, so one client
/// that never sends a newline cannot grow the server's memory.
///
/// The TCP server is deliberately small: blocking accept loop on
/// 127.0.0.1, one thread per connection, no TLS, no backpressure — a lab
/// results endpoint, not an internet-facing daemon.
#pragma once

#include <atomic>
#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>

#include "query/query.h"

namespace nbtisim::query {

/// Longest request line a session reads [bytes], not counting the
/// newline: far above any real query, which is well under a kilobyte.
inline constexpr std::size_t kMaxRequestLine = std::size_t{1} << 20;

/// Evaluates one request line against \p view. Never throws: errors come
/// back as {"ok":false,...}. The response has no trailing newline.
std::string handle_query(const StoreView& view, std::string_view line,
                         int n_threads);

/// Runs one session: reads request lines from \p in until EOF, writing one
/// response line each to \p out (blank request lines are skipped), or
/// until a line exceeds kMaxRequestLine. Safe to run concurrently on one
/// shared \p view.
void serve_session(const StoreView& view, std::istream& in, std::ostream& out,
                   int n_threads);

/// Options for serve_tcp().
struct ServeOptions {
  int port = 0;             ///< 0: ephemeral (see bound_port)
  int n_threads = 0;        ///< per-query parallelism (0: hardware)
  int max_connections = 0;  ///< stop after this many sessions; 0: forever
  /// Set to the listening port right after bind — lets a launcher (or a
  /// test) on another thread discover an ephemeral port while the server
  /// blocks in accept.
  std::atomic<int>* bound_port = nullptr;
};

/// Serves \p view over TCP on 127.0.0.1 until \p opt.max_connections
/// sessions finished (each connection runs serve_session on its own
/// thread). Progress lines go to \p log when non-null.
/// \throws std::runtime_error when the socket cannot be created or bound
void serve_tcp(const StoreView& view, const ServeOptions& opt,
               std::ostream* log = nullptr);

}  // namespace nbtisim::query
