/**
 * @file
 * sigild — the profile-query daemon binary.
 *
 * Loads traces named on the command line, binds the Unix-domain
 * socket (and optionally loopback TCP), prints one "listening" line,
 * and serves until SIGTERM/SIGINT or a client Shutdown request. The
 * signal handler only writes to a self-pipe; the main thread turns
 * that byte into the same graceful drain the Shutdown op performs —
 * in-flight requests finish, their responses are flushed, then the
 * process exits 0.
 *
 * Usage:
 *   sigild --socket PATH [--tcp PORT] [--load NAME=TRACE]...
 *          [--threads N] [--budget-mb N]
 *          [--timeout-ms N] [--stall-ms N]
 */

#include <cerrno>
#include <charconv>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <unistd.h>
#include <utility>
#include <vector>

#include "server/server.hh"
#include "support/logging.hh"

using namespace sigil;

namespace {

int g_signal_pipe[2] = {-1, -1};

void
onTermSignal(int)
{
    char b = 1;
    [[maybe_unused]] ssize_t r = ::write(g_signal_pipe[1], &b, 1);
}

void
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s --socket PATH [--tcp PORT] [--load NAME=TRACE]...\n"
        "          [--threads N] [--budget-mb N]\n"
        "          [--timeout-ms N] [--stall-ms N]\n",
        argv0);
}

} // namespace

int
main(int argc, char **argv)
{
    server::ServerConfig cfg;
    std::vector<std::pair<std::string, std::string>> loads;

    // A numeric flag takes a plain decimal in [lo, hi]: no sign, no
    // whitespace, no trailing junk. Anything else is a usage error.
    auto intArg = [&](int &i, const char *what, unsigned long long lo,
                      unsigned long long hi) -> unsigned long long {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s needs a value\n", what);
            usage(argv[0]);
            std::exit(2);
        }
        const char *text = argv[++i];
        const char *end = text + std::strlen(text);
        unsigned long long v = 0;
        auto [ptr, ec] = std::from_chars(text, end, v);
        if (ec != std::errc() || ptr != end || ptr == text || v < lo ||
            v > hi) {
            std::fprintf(stderr,
                         "%s wants an integer in [%llu, %llu], got '%s'\n",
                         what, lo, hi, text);
            usage(argv[0]);
            std::exit(2);
        }
        return v;
    };

    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--socket") == 0 && i + 1 < argc) {
            cfg.unixPath = argv[++i];
        } else if (std::strcmp(argv[i], "--tcp") == 0) {
            cfg.tcpPort = static_cast<int>(intArg(i, "--tcp", 0, 65535));
        } else if (std::strcmp(argv[i], "--load") == 0 && i + 1 < argc) {
            std::string spec = argv[++i];
            std::size_t eq = spec.find('=');
            if (eq == std::string::npos || eq == 0 ||
                eq + 1 == spec.size()) {
                std::fprintf(stderr,
                             "--load wants NAME=TRACE, got '%s'\n",
                             spec.c_str());
                return 2;
            }
            loads.emplace_back(spec.substr(0, eq), spec.substr(eq + 1));
        } else if (std::strcmp(argv[i], "--threads") == 0) {
            cfg.threads =
                static_cast<unsigned>(intArg(i, "--threads", 1, 256));
        } else if (std::strcmp(argv[i], "--budget-mb") == 0) {
            cfg.memoryBudgetBytes =
                static_cast<std::size_t>(
                    intArg(i, "--budget-mb", 0, SIZE_MAX >> 20))
                << 20;
        } else if (std::strcmp(argv[i], "--timeout-ms") == 0) {
            cfg.recvTimeoutMs = cfg.sendTimeoutMs =
                static_cast<int>(intArg(i, "--timeout-ms", 0, INT_MAX));
        } else if (std::strcmp(argv[i], "--stall-ms") == 0) {
            cfg.stallTimeoutMs = static_cast<unsigned>(
                intArg(i, "--stall-ms", 0, UINT_MAX));
        } else {
            std::fprintf(stderr, "unknown argument '%s'\n", argv[i]);
            usage(argv[0]);
            return 2;
        }
    }
    if (cfg.unixPath.empty()) {
        usage(argv[0]);
        return 2;
    }

    // Signal plumbing goes in before the socket is observable: the
    // moment start() binds, a supervisor may SIGTERM us, and a
    // default-disposition SIGTERM would skip the drain.
    if (::pipe(g_signal_pipe) != 0) {
        std::fprintf(stderr, "sigild: pipe: %s\n", std::strerror(errno));
        return 1;
    }
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    sa.sa_handler = onTermSignal;
    ::sigaction(SIGTERM, &sa, nullptr);
    ::sigaction(SIGINT, &sa, nullptr);
    ::signal(SIGPIPE, SIG_IGN);

    server::ProfileQueryServer server(cfg);
    for (const auto &[name, path] : loads) {
        server::LoadStatus st = server.catalog().load(name, path);
        if (!st.ok) {
            std::fprintf(stderr, "sigild: cannot load %s from %s: %s\n",
                         name.c_str(), path.c_str(), st.error.c_str());
            return 1;
        }
        std::printf("sigild: loaded %s: %s\n", name.c_str(),
                    st.summary.c_str());
    }

    std::string err;
    if (!server.start(&err)) {
        std::fprintf(stderr, "sigild: cannot start: %s\n", err.c_str());
        return 1;
    }
    if (server.tcpPort() != 0) {
        std::printf("sigild: listening on %s and tcp 127.0.0.1:%u\n",
                    cfg.unixPath.c_str(), server.tcpPort());
    } else {
        std::printf("sigild: listening on %s\n", cfg.unixPath.c_str());
    }
    std::fflush(stdout);

    // Two wake sources: a termination signal (self-pipe) or a client
    // Shutdown request (server-side drain flag). Either way the drain
    // below completes every in-flight request before exit.
    std::thread signal_thread([&server] {
        char b;
        if (::read(g_signal_pipe[0], &b, 1) > 0)
            server.stop();
    });
    server.waitForShutdown();
    server.stop();
    // Unblock the signal thread if no signal ever arrived.
    char b = 0;
    [[maybe_unused]] ssize_t r = ::write(g_signal_pipe[1], &b, 1);
    signal_thread.join();
    std::printf("sigild: drained, bye\n");
    return 0;
}
