#include "redis_sim/command_table.h"

#include <cctype>
#include <exception>
#include <utility>

namespace cuckoograph::redis_sim {
namespace {

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

}  // namespace

bool CommandTable::RegisterCommand(std::string_view name, int arity,
                                   CommandHandler handler) {
  std::string key = ToUpper(name);
  const auto [it, inserted] =
      commands_.emplace(key, CommandEntry{arity, std::move(handler)});
  (void)it;
  if (inserted) registration_order_.push_back(std::move(key));
  return inserted;
}

std::vector<std::string> CommandTable::CommandNames() const {
  return registration_order_;
}

RespValue CommandTable::Dispatch(Span<const std::string_view> argv) const {
  const auto it = commands_.find(ToUpper(argv[0]));
  if (it == commands_.end()) {
    dispatch_errors_.fetch_add(1, std::memory_order_relaxed);
    return RespValue::Error("ERR unknown command '" + std::string(argv[0]) +
                            "'");
  }
  const CommandEntry& entry = it->second;
  const int argc = static_cast<int>(argv.size());
  const bool arity_ok =
      entry.arity >= 0 ? argc == entry.arity : argc >= -entry.arity;
  if (!arity_ok) {
    dispatch_errors_.fetch_add(1, std::memory_order_relaxed);
    return RespValue::Error("ERR wrong number of arguments for '" +
                            ToLower(argv[0]) + "' command");
  }
  dispatched_.fetch_add(1, std::memory_order_relaxed);
  // A throwing handler (e.g. a DurableStore whose WAL has failed) fails
  // its own command, not the connection or the worker thread serving it.
  RespValue reply;
  try {
    reply = entry.handler(argv);
  } catch (const std::exception& e) {
    reply = RespValue::Error(std::string("ERR ") + e.what());
  } catch (...) {
    reply = RespValue::Error("ERR command handler failed");
  }
  if (reply.IsError()) {
    dispatch_errors_.fetch_add(1, std::memory_order_relaxed);
  }
  return reply;
}

bool RespConnection::Feed(std::string_view bytes, std::string* out) {
  stats_.bytes_in += bytes.size();
  const size_t out_start = out->size();
  buffer_.append(bytes.data(), bytes.size());
  bool clean = true;
  size_t pos = 0;
  while (pos < buffer_.size()) {
    const CommandParse parsed =
        ParseCommand(std::string_view(buffer_).substr(pos));
    if (parsed.status == ParseStatus::kIncomplete) break;
    if (parsed.status == ParseStatus::kError) {
      *out += Encode(RespValue::Error("ERR " + parsed.error));
      ++stats_.error_replies;
      ++stats_.protocol_errors;
      pos = buffer_.size();  // drop the poisoned stream
      clean = false;
      break;
    }
    pos += parsed.consumed;
    if (parsed.argv.empty()) continue;  // blank line / empty multibulk
    std::vector<std::string_view> views(parsed.argv.begin(),
                                        parsed.argv.end());
    const RespValue reply =
        table_->Dispatch(Span<const std::string_view>(views));
    ++stats_.commands;
    if (reply.IsError()) ++stats_.error_replies;
    *out += Encode(reply);
  }
  buffer_.erase(0, pos);
  stats_.bytes_out += out->size() - out_start;
  return clean;
}

}  // namespace cuckoograph::redis_sim
