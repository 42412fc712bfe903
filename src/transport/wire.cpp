#include "transport/wire.hpp"

#include "runtime/serde.hpp"

namespace omig::transport {

namespace {

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

void put_str(std::vector<std::uint8_t>& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

void put_state(std::vector<std::uint8_t>& out,
               const runtime::ObjectState& state) {
  // Embedded as a serde blob: the object codec lives in runtime/serde only.
  const std::vector<std::uint8_t> blob = runtime::encode(state);
  put_u32(out, static_cast<std::uint32_t>(blob.size()));
  out.insert(out.end(), blob.begin(), blob.end());
}

/// Strict cursor over one frame payload; mirrors runtime/serde's Reader.
class Reader {
public:
  explicit Reader(std::span<const std::uint8_t> bytes) : bytes_{bytes} {}

  bool read_u8(std::uint8_t& out) {
    if (bytes_.size() - pos_ < 1) return false;
    out = bytes_[pos_++];
    return true;
  }

  bool read_u32(std::uint32_t& out) {
    if (bytes_.size() - pos_ < 4) return false;
    out = static_cast<std::uint32_t>(bytes_[pos_]) |
          static_cast<std::uint32_t>(bytes_[pos_ + 1]) << 8 |
          static_cast<std::uint32_t>(bytes_[pos_ + 2]) << 16 |
          static_cast<std::uint32_t>(bytes_[pos_ + 3]) << 24;
    pos_ += 4;
    return true;
  }

  bool read_u64(std::uint64_t& out) {
    std::uint32_t lo = 0, hi = 0;
    if (!read_u32(lo) || !read_u32(hi)) return false;
    out = static_cast<std::uint64_t>(hi) << 32 | lo;
    return true;
  }

  bool read_str(std::string& out) {
    std::uint32_t len = 0;
    if (!read_u32(len)) return false;
    if (bytes_.size() - pos_ < len) return false;
    out.assign(reinterpret_cast<const char*>(bytes_.data() + pos_), len);
    pos_ += len;
    return true;
  }

  bool read_state(runtime::ObjectState& out) {
    std::uint32_t len = 0;
    if (!read_u32(len)) return false;
    if (bytes_.size() - pos_ < len) return false;
    auto decoded = runtime::decode(bytes_.subspan(pos_, len));
    if (!decoded.has_value()) return false;
    out = std::move(*decoded);
    pos_ += len;
    return true;
  }

  [[nodiscard]] bool exhausted() const { return pos_ == bytes_.size(); }

private:
  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

}  // namespace

const char* to_string(FrameType type) {
  switch (type) {
    case FrameType::Invoke:
      return "invoke";
    case FrameType::Install:
      return "install";
    case FrameType::Evict:
      return "evict";
    case FrameType::Shutdown:
      return "shutdown";
    case FrameType::InvokeReply:
      return "invoke-reply";
    case FrameType::InstallReply:
      return "install-reply";
    case FrameType::EvictReply:
      return "evict-reply";
    case FrameType::DirLookup:
      return "dir-lookup";
    case FrameType::DirUpdate:
      return "dir-update";
    case FrameType::DirLookupReply:
      return "dir-lookup-reply";
    case FrameType::DirUpdateReply:
      return "dir-update-reply";
  }
  return "unknown";
}

FrameType Frame::type() const {
  // variant alternatives are declared in FrameType order, starting at 1.
  return static_cast<FrameType>(payload.index() + 1);
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  std::vector<std::uint8_t> out;
  put_u32(out, 0);  // length prefix, patched below
  out.push_back(kWireVersion);
  out.push_back(static_cast<std::uint8_t>(frame.type()));
  put_u64(out, frame.corr);
  std::visit(
      [&](const auto& body) {
        using T = std::decay_t<decltype(body)>;
        if constexpr (std::is_same_v<T, WireInvoke>) {
          put_u64(out, body.seq);
          put_str(out, body.object);
          put_str(out, body.method);
          put_str(out, body.argument);
        } else if constexpr (std::is_same_v<T, WireInstall>) {
          put_u64(out, body.seq);
          put_str(out, body.name);
          put_state(out, body.state);
        } else if constexpr (std::is_same_v<T, WireEvict>) {
          put_u64(out, body.seq);
          put_str(out, body.name);
        } else if constexpr (std::is_same_v<T, WireShutdown>) {
          // no body
        } else if constexpr (std::is_same_v<T, WireInvokeReply>) {
          out.push_back(body.result.ok ? 1 : 0);
          put_str(out, body.result.value);
        } else if constexpr (std::is_same_v<T, WireInstallReply>) {
          out.push_back(body.result ? 1 : 0);
        } else if constexpr (std::is_same_v<T, WireEvictReply>) {
          put_state(out, body.result);
        } else if constexpr (std::is_same_v<T, WireDirLookup>) {
          put_u64(out, body.seq);
          put_str(out, body.name);
        } else if constexpr (std::is_same_v<T, WireDirUpdate>) {
          put_u64(out, body.seq);
          put_str(out, body.name);
          put_u64(out, body.node);
        } else if constexpr (std::is_same_v<T, WireDirLookupReply>) {
          out.push_back(body.result.found ? 1 : 0);
          put_u64(out, body.result.node);
        } else if constexpr (std::is_same_v<T, WireDirUpdateReply>) {
          out.push_back(body.result ? 1 : 0);
        }
      },
      frame.payload);
  // Not clamped to kMaxFramePayload here: the sender turns an oversized
  // encoding into a typed SendStatus, and receivers reject the length.
  const auto len = static_cast<std::uint32_t>(out.size() - 4);
  out[0] = static_cast<std::uint8_t>(len);
  out[1] = static_cast<std::uint8_t>(len >> 8);
  out[2] = static_cast<std::uint8_t>(len >> 16);
  out[3] = static_cast<std::uint8_t>(len >> 24);
  return out;
}

std::optional<Frame> decode_payload(std::span<const std::uint8_t> payload) {
  Reader reader{payload};
  std::uint8_t version = 0;
  std::uint8_t type = 0;
  Frame frame;
  if (!reader.read_u8(version) || !reader.read_u8(type) ||
      !reader.read_u64(frame.corr)) {
    return std::nullopt;
  }
  if (version != kWireVersion) return std::nullopt;
  bool ok = false;
  switch (static_cast<FrameType>(type)) {
    case FrameType::Invoke: {
      WireInvoke body;
      ok = reader.read_u64(body.seq) && reader.read_str(body.object) &&
           reader.read_str(body.method) && reader.read_str(body.argument);
      frame.payload = std::move(body);
      break;
    }
    case FrameType::Install: {
      WireInstall body;
      ok = reader.read_u64(body.seq) && reader.read_str(body.name) &&
           reader.read_state(body.state);
      frame.payload = std::move(body);
      break;
    }
    case FrameType::Evict: {
      WireEvict body;
      ok = reader.read_u64(body.seq) && reader.read_str(body.name);
      frame.payload = std::move(body);
      break;
    }
    case FrameType::Shutdown: {
      frame.payload = WireShutdown{};
      ok = true;
      break;
    }
    case FrameType::InvokeReply: {
      WireInvokeReply body;
      std::uint8_t flag = 0;
      ok = reader.read_u8(flag) && reader.read_str(body.result.value);
      body.result.ok = flag != 0;
      frame.payload = std::move(body);
      break;
    }
    case FrameType::InstallReply: {
      WireInstallReply body;
      std::uint8_t flag = 0;
      ok = reader.read_u8(flag);
      body.result = flag != 0;
      frame.payload = body;
      break;
    }
    case FrameType::EvictReply: {
      WireEvictReply body;
      ok = reader.read_state(body.result);
      frame.payload = std::move(body);
      break;
    }
    case FrameType::DirLookup: {
      WireDirLookup body;
      ok = reader.read_u64(body.seq) && reader.read_str(body.name);
      frame.payload = std::move(body);
      break;
    }
    case FrameType::DirUpdate: {
      WireDirUpdate body;
      ok = reader.read_u64(body.seq) && reader.read_str(body.name) &&
           reader.read_u64(body.node);
      frame.payload = std::move(body);
      break;
    }
    case FrameType::DirLookupReply: {
      WireDirLookupReply body;
      std::uint8_t flag = 0;
      ok = reader.read_u8(flag) && reader.read_u64(body.result.node);
      body.result.found = flag != 0;
      frame.payload = body;
      break;
    }
    case FrameType::DirUpdateReply: {
      WireDirUpdateReply body;
      std::uint8_t flag = 0;
      ok = reader.read_u8(flag);
      body.result = flag != 0;
      frame.payload = body;
      break;
    }
    default:
      return std::nullopt;  // unknown frame type
  }
  if (!ok || !reader.exhausted()) return std::nullopt;  // trailing garbage
  return frame;
}

void FrameBuffer::feed(std::span<const std::uint8_t> bytes) {
  if (error_) return;  // poisoned: drop everything
  // Compact the consumed prefix before growing, so the buffer stays
  // bounded by one partial frame plus whatever one feed() delivers.
  if (pos_ > 0) {
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::optional<Frame> FrameBuffer::next() {
  if (error_) return std::nullopt;
  if (buffered() < 4) return std::nullopt;
  const std::uint8_t* p = buffer_.data() + pos_;
  const std::uint32_t len = static_cast<std::uint32_t>(p[0]) |
                            static_cast<std::uint32_t>(p[1]) << 8 |
                            static_cast<std::uint32_t>(p[2]) << 16 |
                            static_cast<std::uint32_t>(p[3]) << 24;
  if (len > kMaxFramePayload) {
    error_ = true;  // oversized length: framing is lost for good
    return std::nullopt;
  }
  if (buffered() < 4 + static_cast<std::size_t>(len)) return std::nullopt;
  auto frame = decode_payload(
      std::span<const std::uint8_t>{buffer_.data() + pos_ + 4, len});
  if (!frame.has_value()) {
    error_ = true;  // malformed payload poisons the stream
    return std::nullopt;
  }
  pos_ += 4 + static_cast<std::size_t>(len);
  return frame;
}

}  // namespace omig::transport
