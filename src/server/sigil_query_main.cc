/**
 * @file
 * sigil-query — CLI client of the profile-query daemon.
 *
 * Usage:
 *   sigil-query --socket PATH COMMAND [args...]
 *   sigil-query --tcp HOST:PORT COMMAND [args...]
 *
 * Commands:
 *   ping                       protocol handshake
 *   stats                      server + catalog counters
 *   list                       loaded trace names
 *   profile NAME               full aggregate profile
 *   function NAME FN           context rows of one function
 *   edges NAME                 producer->consumer matrix
 *   summary NAME               flat report + comm summary
 *   diff NAME_A NAME_B         structural profile diff
 *   partition NAME             hw/sw accelerator candidates
 *   load NAME TRACE            replay a trace into the catalog
 *   unload NAME                drop a loaded trace
 *   shutdown                   graceful daemon drain
 *
 * Prints the response text on stdout; server or transport errors go
 * to stderr and exit non-zero.
 */

#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "server/client.hh"

using namespace sigil;

namespace {

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s (--socket PATH | --tcp HOST:PORT) COMMAND [args]\n"
        "commands: ping stats list profile function edges summary\n"
        "          diff partition load unload shutdown\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string unix_path;
    std::string tcp_host;
    std::uint16_t tcp_port = 0;
    std::vector<std::string> args;

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc) {
            unix_path = argv[++i];
        } else if (std::strcmp(argv[i], "--tcp") == 0 && i + 1 < argc) {
            // PORT is a plain decimal in [1, 65535]: no sign, no
            // whitespace, no trailing junk.
            std::string spec = argv[++i];
            std::size_t colon = spec.rfind(':');
            unsigned long port = 0;
            bool ok = colon != std::string::npos && colon != 0;
            if (ok) {
                const char *first = spec.data() + colon + 1;
                const char *last = spec.data() + spec.size();
                auto [ptr, ec] = std::from_chars(first, last, port);
                ok = ec == std::errc() && ptr == last && port >= 1 &&
                     port <= 65535;
            }
            if (!ok) {
                std::fprintf(stderr,
                             "--tcp wants HOST:PORT with PORT in "
                             "[1, 65535], got '%s'\n",
                             spec.c_str());
                usage(argv[0]);
                return 2;
            }
            tcp_host = spec.substr(0, colon);
            tcp_port = static_cast<std::uint16_t>(port);
        } else {
            args.emplace_back(argv[i]);
        }
    }
    if (args.empty() || (unix_path.empty() && tcp_host.empty())) {
        usage(argv[0]);
        return 2;
    }

    server::QueryClient client =
        unix_path.empty()
            ? server::QueryClient::connectTcp(tcp_host, tcp_port)
            : server::QueryClient::connectUnix(unix_path);
    if (!client.valid()) {
        std::fprintf(stderr, "sigil-query: cannot connect to %s\n",
                     unix_path.empty()
                         ? (tcp_host + ":" + std::to_string(tcp_port))
                               .c_str()
                         : unix_path.c_str());
        return 1;
    }

    const std::string &cmd = args[0];
    auto expect = [&](std::size_t n, const char *shape) -> bool {
        if (args.size() - 1 != n) {
            std::fprintf(stderr, "sigil-query: %s expects %s\n",
                         cmd.c_str(), shape);
            return false;
        }
        return true;
    };

    server::QueryResult result;
    if (cmd == "ping" && expect(0, "no arguments")) {
        result = client.ping();
    } else if (cmd == "stats" && expect(0, "no arguments")) {
        result = client.stats();
    } else if (cmd == "list" && expect(0, "no arguments")) {
        result = client.list();
    } else if (cmd == "profile" && expect(1, "NAME")) {
        result = client.profile(args[1]);
    } else if (cmd == "function" && expect(2, "NAME FN")) {
        result = client.function(args[1], args[2]);
    } else if (cmd == "edges" && expect(1, "NAME")) {
        result = client.edges(args[1]);
    } else if (cmd == "summary" && expect(1, "NAME")) {
        result = client.summary(args[1]);
    } else if (cmd == "diff" && expect(2, "NAME_A NAME_B")) {
        result = client.diff(args[1], args[2]);
    } else if (cmd == "partition" && expect(1, "NAME")) {
        result = client.partition(args[1]);
    } else if (cmd == "load" && expect(2, "NAME TRACE")) {
        result = client.load(args[1], args[2]);
    } else if (cmd == "unload" && expect(1, "NAME")) {
        result = client.unload(args[1]);
    } else if (cmd == "shutdown" && expect(0, "no arguments")) {
        result = client.shutdownServer();
    } else {
        if (cmd != "ping" && cmd != "stats" && cmd != "list" &&
            cmd != "profile" && cmd != "function" && cmd != "edges" &&
            cmd != "summary" && cmd != "diff" && cmd != "partition" &&
            cmd != "load" && cmd != "unload" && cmd != "shutdown") {
            std::fprintf(stderr, "sigil-query: unknown command '%s'\n",
                         cmd.c_str());
            usage(argv[0]);
        }
        return 2;
    }

    if (!result.ok) {
        std::fprintf(stderr, "sigil-query: %s: [%s] %s\n", cmd.c_str(),
                     server::errCodeName(result.code),
                     result.error.c_str());
        return 1;
    }
    std::fputs(result.text.c_str(), stdout);
    return 0;
}
