#include "query/serve.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <vector>

namespace nbtisim::query {
namespace {

bool is_blank(std::string_view line) {
  for (char c : line) {
    if (c != ' ' && c != '\t' && c != '\r') return false;
  }
  return true;
}

std::string error_response(const std::string& message) {
  common::json::Value err;
  err.set("ok", common::json::Value(false));
  err.set("error", common::json::Value(message));
  return common::json::dump(err, -1, common::json::NonFinite::Null);
}

/// The answer to a line over kMaxRequestLine; the session closes after it.
std::string too_long_response() {
  return error_response("request line longer than " +
                        std::to_string(kMaxRequestLine) +
                        " bytes; closing the session");
}

enum class LineRead { Line, TooLong, End };

/// Reads the next line of \p in, without its newline, into \p line —
/// std::getline, except that it stops reading past kMaxRequestLine bytes.
LineRead read_line(std::istream& in, std::string& line) {
  line.clear();
  std::streambuf* buf = in.rdbuf();
  for (;;) {
    const int c = buf->sbumpc();
    if (c == std::char_traits<char>::eof()) {
      return line.empty() ? LineRead::End : LineRead::Line;
    }
    if (c == '\n') return LineRead::Line;
    if (line.size() == kMaxRequestLine) return LineRead::TooLong;
    line.push_back(static_cast<char>(c));
  }
}

}  // namespace

std::string handle_query(const StoreView& view, std::string_view line,
                         int n_threads) {
  using common::json::Value;
  try {
    const Query q = parse_query(common::json::parse(line));
    const QueryResult r = run_query(view, q, n_threads);
    // Splice the already-serialized {"columns":...,"rows":...} body into
    // the envelope — one JSON tree walk, not two.
    const std::string body = r.to_json();
    std::string out = "{\"ok\":true,";
    out.append(body, 1, body.size() - 2);  // strip the body's braces
    out += ",\"matched\":";
    out += std::to_string(r.stats.rows_matched);
    out += ",\"parsed\":";
    out += std::to_string(r.stats.rows_parsed);
    out += '}';
    return out;
  } catch (const std::exception& e) {
    return error_response(e.what());
  }
}

void serve_session(const StoreView& view, std::istream& in, std::ostream& out,
                   int n_threads) {
  std::string line;
  for (;;) {
    const LineRead read = read_line(in, line);
    if (read == LineRead::End) return;
    if (read == LineRead::TooLong) {
      out << too_long_response() << '\n';
      out.flush();
      return;
    }
    if (is_blank(line)) continue;
    out << handle_query(view, line, n_threads) << '\n';
    out.flush();
  }
}

namespace {

/// Sends all of \p data; false when the peer is gone.
bool send_all(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t w = ::send(fd, data.data() + sent, data.size() - sent, 0);
    if (w <= 0) return false;
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

/// Line-oriented session over a connected socket: same protocol as
/// serve_session, on recv/send.
void socket_session(const StoreView& view, int fd, int n_threads) {
  std::string pending;
  std::size_t scanned = 0;  // bytes of pending already searched for '\n'
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    pending.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (;;) {
      const std::size_t nl = pending.find('\n', std::max(start, scanned));
      if (nl == std::string::npos) break;
      if (nl - start > kMaxRequestLine) break;
      std::string_view line(pending.data() + start, nl - start);
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (!is_blank(line) &&
          !send_all(fd, handle_query(view, line, n_threads) + '\n')) {
        ::close(fd);
        return;
      }
      start = nl + 1;
    }
    pending.erase(0, start);
    scanned = pending.size();
    // Whatever is left has no newline in its first kMaxRequestLine bytes
    // (or the line just cut off above is over the limit).
    if (pending.size() > kMaxRequestLine) {
      send_all(fd, too_long_response() + '\n');
      break;
    }
  }
  ::close(fd);
}

}  // namespace

void serve_tcp(const StoreView& view, const ServeOptions& opt,
               std::ostream* log) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    throw std::runtime_error("serve: cannot create socket");
  }
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(opt.port));
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listener, 16) != 0) {
    ::close(listener);
    throw std::runtime_error("serve: cannot bind 127.0.0.1:" +
                             std::to_string(opt.port));
  }
  socklen_t len = sizeof addr;
  ::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len);
  const int port = ntohs(addr.sin_port);
  if (opt.bound_port != nullptr) {
    opt.bound_port->store(port, std::memory_order_release);
  }
  if (log != nullptr) {
    *log << "serve: listening on 127.0.0.1:" << port << "\n" << std::flush;
  }

  std::vector<std::thread> sessions;
  int accepted = 0;
  for (;;) {
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) break;
    sessions.emplace_back(
        [&view, fd, n = opt.n_threads] { socket_session(view, fd, n); });
    ++accepted;
    if (opt.max_connections > 0 && accepted >= opt.max_connections) break;
  }
  for (std::thread& t : sessions) t.join();
  ::close(listener);
  if (log != nullptr) {
    *log << "serve: served " << accepted << " connection"
         << (accepted == 1 ? "" : "s") << "\n";
  }
}

}  // namespace nbtisim::query
