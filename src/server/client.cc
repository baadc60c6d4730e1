#include "server/client.hh"

#include "support/serial.hh"
#include "support/table.hh"

namespace sigil::server {

QueryClient
QueryClient::connectUnix(const std::string &path, int timeout_ms)
{
    net::Socket sock = net::connectUnix(path);
    if (sock.valid())
        sock.setTimeouts(timeout_ms, timeout_ms);
    return QueryClient(std::move(sock));
}

QueryClient
QueryClient::connectTcp(const std::string &host, std::uint16_t port,
                        int timeout_ms)
{
    net::Socket sock = net::connectTcp(host, port);
    if (sock.valid())
        sock.setTimeouts(timeout_ms, timeout_ms);
    return QueryClient(std::move(sock));
}

QueryResult
QueryClient::request(std::uint8_t op, std::string_view payload)
{
    QueryResult result;
    if (!sock_.valid()) {
        result.error = "not connected";
        return result;
    }
    net::IoStatus sent = net::sendFrame(sock_, op, payload, kMaxRequestFrame);
    if (sent == net::IoStatus::TooBig) {
        // Refused before a byte went out: the connection stays usable.
        result.code = ErrCode::BadFrame;
        result.error = strformat(
            "request frame of %zu bytes exceeds the cap of %u bytes",
            payload.size() + 5, kMaxRequestFrame);
        return result;
    }
    if (sent != net::IoStatus::Ok) {
        result.error = std::string("send failed: ") +
                       net::ioStatusName(sent);
        sock_.closeNow();
        return result;
    }
    std::uint8_t resp_op = 0;
    std::string resp_payload;
    net::FrameStatus st = net::recvFrame(sock_, &resp_op, &resp_payload,
                                         kMaxResponseFrame);
    if (st != net::FrameStatus::Ok) {
        result.error = std::string("receive failed: ") +
                       net::frameStatusName(st);
        sock_.closeNow();
        return result;
    }
    if (resp_op == static_cast<std::uint8_t>(Op::RespText)) {
        result.ok = true;
        result.text = std::move(resp_payload);
        return result;
    }
    if (resp_op == static_cast<std::uint8_t>(Op::RespError)) {
        ByteSource src(resp_payload);
        result.code = static_cast<ErrCode>(src.u8());
        result.error = src.str();
        if (!src.ok())
            result.error = "malformed error response";
        return result;
    }
    result.error = "unexpected response op";
    sock_.closeNow();
    return result;
}

namespace {

std::string
oneName(const std::string &name)
{
    ByteSink sink;
    sink.str(name);
    return sink.take();
}

std::string
twoNames(const std::string &a, const std::string &b)
{
    ByteSink sink;
    sink.str(a);
    sink.str(b);
    return sink.take();
}

} // namespace

QueryResult
QueryClient::ping()
{
    return request(static_cast<std::uint8_t>(Op::Ping), {});
}

QueryResult
QueryClient::stats()
{
    return request(static_cast<std::uint8_t>(Op::Stats), {});
}

QueryResult
QueryClient::list()
{
    return request(static_cast<std::uint8_t>(Op::List), {});
}

QueryResult
QueryClient::profile(const std::string &name)
{
    return request(static_cast<std::uint8_t>(Op::Profile),
                   oneName(name));
}

QueryResult
QueryClient::function(const std::string &name,
                      const std::string &fn_name)
{
    return request(static_cast<std::uint8_t>(Op::Function),
                   twoNames(name, fn_name));
}

QueryResult
QueryClient::edges(const std::string &name)
{
    return request(static_cast<std::uint8_t>(Op::Edges), oneName(name));
}

QueryResult
QueryClient::summary(const std::string &name)
{
    return request(static_cast<std::uint8_t>(Op::Summary),
                   oneName(name));
}

QueryResult
QueryClient::diff(const std::string &name_a, const std::string &name_b)
{
    return request(static_cast<std::uint8_t>(Op::Diff),
                   twoNames(name_a, name_b));
}

QueryResult
QueryClient::partition(const std::string &name)
{
    return request(static_cast<std::uint8_t>(Op::Partition),
                   oneName(name));
}

QueryResult
QueryClient::load(const std::string &name, const std::string &path)
{
    return request(static_cast<std::uint8_t>(Op::Load),
                   twoNames(name, path));
}

QueryResult
QueryClient::unload(const std::string &name)
{
    return request(static_cast<std::uint8_t>(Op::Unload),
                   oneName(name));
}

QueryResult
QueryClient::shutdownServer()
{
    return request(static_cast<std::uint8_t>(Op::Shutdown), {});
}

} // namespace sigil::server
