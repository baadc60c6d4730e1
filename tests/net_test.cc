/**
 * @file
 * Frame codec of support/socket.hh over a socketpair: the buffered
 * reader returns frames in order however the bytes arrive (several
 * frames in one write, one byte per write, a frame larger than the
 * read buffer), keeps the EOF, size-cap and CRC verdicts of the wire
 * format, and a moved Socket keeps the bytes it has buffered. The
 * writer puts the same bytes on the wire as a hand-built frame, sends
 * a frame larger than the socket buffer whole, and refuses a frame
 * over its cap before writing anything.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>

#include <sys/socket.h>

#include "support/crc32c.hh"
#include "support/socket.hh"

namespace sigil {
namespace {

constexpr std::uint32_t kCap = 1u << 24;

/** Two connected stream sockets; each end reads with a 5 s deadline. */
struct Pair
{
    Pair()
    {
        int fds[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        a = net::Socket(fds[0]);
        b = net::Socket(fds[1]);
        a.setTimeouts(5000, 5000);
        b.setTimeouts(5000, 5000);
    }

    net::Socket a;
    net::Socket b;
};

/** The wire bytes of one frame, built by hand: len | op | payload | crc. */
std::string
frame(std::uint8_t op, const std::string &payload)
{
    std::string body(1, static_cast<char>(op));
    body += payload;
    const std::uint32_t len = static_cast<std::uint32_t>(body.size() + 4);
    const std::uint32_t crc = crc32c(body.data(), body.size());
    std::string out;
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>(len >> (8 * i)));
    out += body;
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>(crc >> (8 * i)));
    return out;
}

void
writeAll(net::Socket &s, const std::string &bytes)
{
    ASSERT_EQ(s.writeFully(bytes.data(), bytes.size()), net::IoStatus::Ok);
}

/** Receive one frame and expect it to be (op, payload). */
void
expectFrame(net::Socket &s, std::uint8_t want_op, const std::string &want)
{
    std::uint8_t op = 0;
    std::string payload;
    ASSERT_EQ(net::recvFrame(s, &op, &payload, kCap), net::FrameStatus::Ok);
    EXPECT_EQ(op, want_op);
    EXPECT_EQ(payload, want);
}

net::FrameStatus
recvStatus(net::Socket &s, std::uint32_t cap = kCap)
{
    std::uint8_t op = 0;
    std::string payload;
    return net::recvFrame(s, &op, &payload, cap);
}

TEST(NetFraming, TwoFramesInOneWriteComeBackInOrder)
{
    Pair p;
    const std::string second = frame(0x11, std::string(300, 's'));
    writeAll(p.a, frame(0x10, "first") + second);
    expectFrame(p.b, 0x10, "first");
    // The first recv brought in both frames; the second waits in the
    // buffer.
    EXPECT_EQ(p.b.buffered(), second.size());
    expectFrame(p.b, 0x11, std::string(300, 's'));
    EXPECT_EQ(p.b.buffered(), 0u);
}

TEST(NetFraming, FrameDeliveredOneBytePerWrite)
{
    Pair p;
    const std::string wire = frame(0x12, "dribbled payload");
    std::thread writer([&] {
        for (char c : wire) {
            ASSERT_EQ(p.a.writeFully(&c, 1), net::IoStatus::Ok);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });
    expectFrame(p.b, 0x12, "dribbled payload");
    writer.join();
    EXPECT_EQ(p.b.buffered(), 0u);
}

TEST(NetFraming, FrameLargerThanTheReadBuffer)
{
    Pair p;
    std::string big(3 * net::kReadBufferBytes + 17, '\0');
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<char>(i * 131 + (i >> 9));
    std::thread writer([&] {
        EXPECT_EQ(net::sendFrame(p.a, 0x80, big, kCap), net::IoStatus::Ok);
        EXPECT_EQ(net::sendFrame(p.a, 0x81, "after", kCap),
                  net::IoStatus::Ok);
    });
    expectFrame(p.b, 0x80, big);
    expectFrame(p.b, 0x81, "after");
    writer.join();
}

TEST(NetFraming, EofAtAFrameBoundaryIsEof)
{
    Pair p;
    writeAll(p.a, frame(0x01, ""));
    p.a.closeNow();
    expectFrame(p.b, 0x01, "");
    EXPECT_EQ(recvStatus(p.b), net::FrameStatus::Eof);
}

TEST(NetFraming, EofInsideABufferedFrameIsAnError)
{
    Pair p;
    const std::string whole = frame(0x10, "cut short");
    writeAll(p.a, frame(0x01, "") + whole.substr(0, whole.size() - 3));
    p.a.closeNow();
    expectFrame(p.b, 0x01, "");
    EXPECT_GT(p.b.buffered(), 0u);
    EXPECT_EQ(recvStatus(p.b), net::FrameStatus::Error);
}

TEST(NetFraming, BadCrcOnTheSecondOfTwoFramesInOneWrite)
{
    Pair p;
    std::string bad = frame(0x11, "tampered");
    bad[6] ^= 0x40;
    writeAll(p.a, frame(0x10, "intact") + bad);
    expectFrame(p.b, 0x10, "intact");
    EXPECT_EQ(recvStatus(p.b), net::FrameStatus::BadCrc);
}

TEST(NetFraming, LengthChecksPrecedeTheBody)
{
    Pair p;
    // len 4 is below the 5-byte minimum; nothing else need arrive.
    writeAll(p.a, std::string("\x04\x00\x00\x00", 4));
    EXPECT_EQ(recvStatus(p.b), net::FrameStatus::Malformed);

    Pair q;
    writeAll(q.a, frame(0x10, std::string(100, 'x')));
    EXPECT_EQ(recvStatus(q.b, 104), net::FrameStatus::TooBig);
}

TEST(NetFraming, MovedSocketKeepsItsBufferedBytes)
{
    Pair p;
    writeAll(p.a, frame(0x10, "one") + frame(0x11, "two") +
                      frame(0x12, "three"));
    expectFrame(p.b, 0x10, "one");
    const std::size_t held = p.b.buffered();
    ASSERT_GT(held, 0u);

    net::Socket moved(std::move(p.b));
    EXPECT_EQ(p.b.buffered(), 0u);
    EXPECT_EQ(moved.buffered(), held);
    expectFrame(moved, 0x11, "two");

    net::Socket assigned;
    assigned = std::move(moved);
    expectFrame(assigned, 0x12, "three");
    EXPECT_EQ(assigned.buffered(), 0u);
}

TEST(NetFraming, ReadFullyDrainsBufferedBytesFirst)
{
    Pair p;
    writeAll(p.a, frame(0x10, "head") + "tail");
    expectFrame(p.b, 0x10, "head");
    char raw[4];
    ASSERT_EQ(p.b.readFully(raw, sizeof(raw)), net::IoStatus::Ok);
    EXPECT_EQ(std::string(raw, sizeof(raw)), "tail");
}

TEST(NetFraming, SendFrameMatchesAHandBuiltFrame)
{
    for (const std::string &payload :
         {std::string(), std::string("x"),
          std::string("sigild protocol 1\n"), std::string(5000, 'q')}) {
        Pair p;
        ASSERT_EQ(net::sendFrame(p.a, 0x80, payload, kCap),
                  net::IoStatus::Ok);
        const std::string want = frame(0x80, payload);
        std::string got(want.size(), '\0');
        ASSERT_EQ(p.b.readFully(got.data(), got.size()), net::IoStatus::Ok);
        EXPECT_EQ(got, want);
        p.a.closeNow();
        char extra;
        EXPECT_EQ(p.b.readFully(&extra, 1), net::IoStatus::Eof);
    }
}

TEST(NetFraming, SendFrameLargerThanTheSocketBuffer)
{
    // A 1 MiB frame does not fit the socket's send buffer, so the
    // sender blocks until the reader drains it; every byte arrives.
    Pair p;
    std::string big(1 << 20, '\0');
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<char>(i * 7 + (i >> 11));
    std::thread reader([&] { expectFrame(p.b, 0x80, big); });
    EXPECT_EQ(net::sendFrame(p.a, 0x80, big, kCap), net::IoStatus::Ok);
    reader.join();
}

TEST(NetFraming, SendFrameRefusesAFrameOverItsCapBeforeWriting)
{
    Pair p;
    const std::string payload(100, 'p');
    EXPECT_EQ(net::sendFrame(p.a, 0x80, payload, 104),
              net::IoStatus::TooBig);
    // At the cap exactly the frame goes out, and it is the first
    // thing on the wire: the refused frame left no byte behind.
    ASSERT_EQ(net::sendFrame(p.a, 0x81, payload, 105), net::IoStatus::Ok);
    expectFrame(p.b, 0x81, payload);
}

} // namespace
} // namespace sigil
