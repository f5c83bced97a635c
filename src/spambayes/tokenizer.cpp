#include "spambayes/tokenizer.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <utility>

#include "email/mime.h"
#include "util/strings.h"

namespace sbx::spambayes {
namespace {

/// Byte classes, one table load per byte. kAlnum is the C locale's
/// std::isalnum (ASCII digits and letters; nothing calls setlocale, so
/// high bytes are never alnum), kWordChar adds ' - $ ! (strip_punct's
/// set), and kSpace is util::is_space, so whitespace has one definition.
enum : std::uint8_t { kAlnum = 1, kWordChar = 2, kSpace = 4 };

constexpr std::array<std::uint8_t, 256> kByteClasses = [] {
  std::array<std::uint8_t, 256> table{};
  for (std::size_t b = 0; b < table.size(); ++b) {
    const char c = static_cast<char>(b);
    const bool alnum = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'z') ||
                       (c >= 'A' && c <= 'Z');
    std::uint8_t cls = 0;
    if (alnum || c == '\'' || c == '-' || c == '$' || c == '!') {
      cls |= kWordChar;
    }
    if (alnum) cls |= kAlnum;
    if (util::is_space(c)) cls |= kSpace;
    table[b] = cls;
  }
  return table;
}();

bool has_class(char c, std::uint8_t cls) {
  return (kByteClasses[static_cast<unsigned char>(c)] & cls) != 0;
}

bool is_alnum(char c) { return has_class(c, kAlnum); }
bool is_word_char(char c) { return has_class(c, kWordChar); }
bool is_space(char c) { return has_class(c, kSpace); }

bool is_upper(char c) { return c >= 'A' && c <= 'Z'; }

char ascii_lower(char c) {
  return is_upper(c) ? static_cast<char>(c - 'A' + 'a') : c;
}

bool looks_like_url(std::string_view w) {
  // Nearly every chunk fails on its first byte (h/H/w/W) or its second
  // (t/T after h, w/W after w), which skips the three case-insensitive
  // prefix compares; "www." is the shortest prefix.
  if (w.size() < 4) return false;
  const char c0 = ascii_lower(w[0]);
  const char c1 = ascii_lower(w[1]);
  if (!((c0 == 'h' && c1 == 't') || (c0 == 'w' && c1 == 'w'))) return false;
  return util::istarts_with(w, "http://") || util::istarts_with(w, "https://") ||
         util::istarts_with(w, "www.");
}

/// Output adapters. Both receive each token spelling exactly once, in
/// emission order; the buffers they are handed are transient (scratch or
/// the message text), so they must intern (id sink) or look up (known-id
/// sink) immediately.
struct IdSink {
  TokenInterner* interner;
  TokenIdList* out;
  void add(std::string_view token) { out->push_back(interner->intern(token)); }
};

/// Lookup-only and deduplicating: emits the id of each already-interned
/// token once, at its first occurrence, and drops the rest, so the
/// interner is never written and the caller needs no sort. The ids seen
/// so far live in an open-addressing set (linear probing, Fibonacci hash
/// of the dense ids) sized from the message and doubled at half load.
class KnownIdSink {
 public:
  KnownIdSink(const TokenInterner& interner, TokenIdList& out,
              std::size_t size_hint)
      : interner_(&interner), out_(&out) {
    rehash(std::bit_ceil(std::max<std::size_t>(size_hint, 64)));
    out.reserve(seen_.size() / 2);
  }

  void add(std::string_view token) {
    const auto id = interner_->find(token);
    if (id && insert(*id)) out_->push_back(*id);
  }

 private:
  // Interned ids stay far below this (the interner's chunk capacity).
  static constexpr TokenId kEmpty = std::numeric_limits<TokenId>::max();

  /// Adds `id` to the seen set; false if it was already there.
  bool insert(TokenId id) {
    if (2 * (out_->size() + 1) > seen_.size()) rehash(2 * seen_.size());
    for (std::size_t i = slot_of(id);; i = (i + 1) & mask_) {
      if (seen_[i] == id) return false;
      if (seen_[i] == kEmpty) {
        seen_[i] = id;
        return true;
      }
    }
  }

  std::size_t slot_of(TokenId id) const {
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  /// Resizes the set to `slots` (a power of two) and re-adds every id
  /// emitted so far — exactly the set's members.
  void rehash(std::size_t slots) {
    seen_.assign(slots, kEmpty);
    mask_ = slots - 1;
    shift_ = 64 - std::countr_zero(slots);
    for (TokenId id : *out_) {
      std::size_t i = slot_of(id);
      while (seen_[i] != kEmpty) i = (i + 1) & mask_;
      seen_[i] = id;
    }
  }

  const TokenInterner* interner_;
  TokenIdList* out_;
  std::vector<TokenId> seen_;
  std::size_t mask_ = 0;
  int shift_ = 64;
};

/// One tokenization pass over a message/text, generic over the output sink.
/// Lower-casing and prefixing go through a reused scratch buffer (or none,
/// for a word already lower case), so tokenizing performs no per-token
/// allocation. The emitted byte streams are identical for both sinks.
template <typename Sink>
class Emitter {
 public:
  Emitter(const TokenizerOptions& opts, Sink sink)
      : opts_(opts), sink_(std::move(sink)) {
    scratch_.reserve(64);
  }

  void word(std::string_view word) {
    std::string_view w = strip_punct(word);
    if (w.empty()) return;
    if (w.size() < opts_.min_token_length) return;
    if (w.size() <= opts_.max_token_length) {
      add_lower("", w);
      return;
    }
    // Over-length word: SpamBayes emits a "skip" pseudo-token recording the
    // first character and the length bucketed to 10, then retokenizes the
    // pieces between punctuation so embedded words still count.
    if (opts_.generate_skip_tokens) {
      scratch_ = "skip:";
      scratch_ += ascii_lower(w[0]);
      scratch_ += ' ';
      scratch_ += std::to_string(w.size() / 10 * 10);
      sink_.add(scratch_);
    }
    std::size_t start = 0;
    for (std::size_t i = 0; i <= w.size(); ++i) {
      bool boundary = i == w.size() || !is_alnum(w[i]);
      if (boundary) {
        if (i > start) {
          std::string_view piece = w.substr(start, i - start);
          if (piece.size() >= opts_.min_token_length &&
              piece.size() <= opts_.max_token_length &&
              piece.size() < w.size()) {
            add_lower("", piece);
          }
        }
        start = i + 1;
      }
    }
  }

  void url(std::string_view url) {
    // Normalize: strip scheme, then split host/path on separators.
    std::string_view rest = url;
    if (util::istarts_with(rest, "http://")) {
      sink_.add("url:http");
      rest.remove_prefix(7);
    } else if (util::istarts_with(rest, "https://")) {
      sink_.add("url:https");
      rest.remove_prefix(8);
    }
    std::size_t path_start = rest.find('/');
    std::string_view host = path_start == std::string_view::npos
                                ? rest
                                : rest.substr(0, path_start);
    for_each_field(host, '.', [&](std::string_view label) {
      auto piece = strip_punct(label);
      if (!piece.empty()) add_lower("url:", piece);
    });
    if (path_start != std::string_view::npos) {
      std::string_view path = rest.substr(path_start + 1);
      for_each_field(path, '/', [&](std::string_view seg) {
        auto piece = strip_punct(seg);
        if (piece.size() >= opts_.min_token_length &&
            piece.size() <= opts_.max_token_length) {
          add_lower("url:", piece);
        }
      });
    }
  }

  void header_value(std::string_view field, std::string_view value) {
    prefix_.clear();
    if (opts_.prefix_header_tokens) {
      for (char c : field) prefix_.push_back(ascii_lower(c));
      prefix_.push_back(':');
    }
    // Address-ish headers split on whitespace and on @/<>/" characters so
    // the local part and domain labels become separate tokens.
    cleaned_.clear();
    cleaned_.reserve(value.size());
    for (char c : value) {
      cleaned_.push_back((c == '@' || c == '<' || c == '>' || c == '"' ||
                          c == ',' || c == '(' || c == ')')
                             ? ' '
                             : c);
    }
    // Prefixed header tokens keep even short words ("RE:" in a subject is
    // evidence); unprefixed ones share the body token space and follow its
    // minimum length.
    const std::size_t min_len =
        opts_.prefix_header_tokens ? 2 : opts_.min_token_length;
    for_each_whitespace_word(cleaned_, [&](std::string_view word) {
      std::string_view w = strip_punct(word);
      if (w.empty()) return;
      if (w.size() > opts_.max_token_length) {
        // Split long header atoms (e.g. message-ids) on dots.
        for_each_field(w, '.', [&](std::string_view piece) {
          auto p = strip_punct(piece);
          if (p.size() >= min_len && p.size() <= opts_.max_token_length) {
            add_lower(prefix_, p);
          }
        });
        return;
      }
      if (w.size() >= min_len) add_lower(prefix_, w);
    });
  }

  void text(std::string_view text) {
    std::size_t i = 0;
    while (i < text.size()) {
      while (i < text.size() && is_space(text[i])) ++i;
      std::size_t start = i;
      while (i < text.size() && !is_space(text[i])) ++i;
      if (i == start) continue;
      std::string_view chunk = text.substr(start, i - start);
      if (opts_.tokenize_urls && looks_like_url(chunk)) {
        url(strip_punct(chunk));
      } else {
        word(chunk);
      }
    }
  }

  void message(const email::Message& msg) {
    if (opts_.tokenize_headers) {
      static constexpr std::string_view kFields[] = {"Subject", "From", "To",
                                                     "Reply-To"};
      for (auto field : kFields) {
        for (const auto& value : msg.all_headers(field)) {
          header_value(field, value);
        }
      }
    }
    text(email::extract_text(msg));
  }

 private:
  /// Emits prefix + ascii_lower(body). Most body words are already lower
  /// case and unprefixed, and go to the sink as they are; the rest are
  /// written into the scratch buffer, sized once.
  void add_lower(std::string_view prefix, std::string_view body) {
    if (prefix.empty() && std::none_of(body.begin(), body.end(), is_upper)) {
      sink_.add(body);
      return;
    }
    scratch_.resize(prefix.size() + body.size());
    char* out = std::copy(prefix.begin(), prefix.end(), scratch_.data());
    std::transform(body.begin(), body.end(), out, ascii_lower);
    sink_.add(scratch_);
  }

  /// Visits every '.'-/'/'-separated field, keeping empty fields —
  /// identical semantics to util::split, without the allocations.
  template <typename Fn>
  static void for_each_field(std::string_view s, char sep, Fn&& fn) {
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
      if (i == s.size() || s[i] == sep) {
        fn(s.substr(start, i - start));
        start = i + 1;
      }
    }
  }

  /// Visits maximal non-whitespace runs (util::split_whitespace semantics).
  template <typename Fn>
  static void for_each_whitespace_word(std::string_view s, Fn&& fn) {
    std::size_t i = 0;
    while (i < s.size()) {
      while (i < s.size() && is_space(s[i])) ++i;
      std::size_t start = i;
      while (i < s.size() && !is_space(s[i])) ++i;
      if (i > start) fn(s.substr(start, i - start));
    }
  }

  const TokenizerOptions& opts_;
  Sink sink_;
  std::string scratch_;
  std::string prefix_;
  std::string cleaned_;
};

}  // namespace

// Strips characters that are not word characters from both ends.
std::string_view strip_punct(std::string_view w) {
  std::size_t b = 0;
  std::size_t e = w.size();
  while (b < e && !is_word_char(w[b])) ++b;
  while (e > b && !is_word_char(w[e - 1])) --e;
  return w.substr(b, e - b);
}

Tokenizer::Tokenizer(TokenizerOptions opts) : opts_(opts) {}

TokenIdList Tokenizer::tokenize_ids(const email::Message& msg,
                                    TokenInterner& interner) const {
  TokenIdList out;
  Emitter<IdSink> emitter(opts_, IdSink{&interner, &out});
  emitter.message(msg);
  return out;
}

TokenIdList Tokenizer::tokenize_text_ids(std::string_view text,
                                         TokenInterner& interner) const {
  TokenIdList out;
  Emitter<IdSink> emitter(opts_, IdSink{&interner, &out});
  emitter.text(text);
  return out;
}

TokenIdList Tokenizer::tokenize_known_ids(
    const email::Message& msg, const TokenInterner& interner) const {
  TokenIdList out;
  // One slot per 4 body bytes holds a typical message's distinct tokens
  // under half load; the set doubles past that.
  Emitter<KnownIdSink> emitter(
      opts_, KnownIdSink(interner, out, msg.body().size() / 4));
  emitter.message(msg);
  return out;
}

TokenIdSet unique_token_ids(TokenIdList ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

}  // namespace sbx::spambayes
