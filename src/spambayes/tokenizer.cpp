#include "spambayes/tokenizer.h"

#include <algorithm>
#include <cctype>

#include "email/mime.h"
#include "util/strings.h"

namespace sbx::spambayes {
namespace {

bool is_word_char(char c) {
  auto uc = static_cast<unsigned char>(c);
  return std::isalnum(uc) != 0 || c == '\'' || c == '-' || c == '$' ||
         c == '!';
}

bool looks_like_url(std::string_view w) {
  return util::istarts_with(w, "http://") || util::istarts_with(w, "https://") ||
         util::istarts_with(w, "www.");
}

char ascii_lower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

/// Output adapters. All receive each token spelling exactly once, in
/// emission order; the buffers they are handed are transient scratch, so
/// they must copy (string sink), intern (id sink) or look up (known-id
/// sink) immediately.
struct StringSink {
  TokenList* out;
  void add(std::string_view token) { out->emplace_back(token); }
};

struct IdSink {
  TokenInterner* interner;
  TokenIdList* out;
  void add(std::string_view token) { out->push_back(interner->intern(token)); }
};

/// Lookup-only: emits the ids of already-interned tokens and drops the
/// rest, so the interner is never written.
struct KnownIdSink {
  const TokenInterner* interner;
  TokenIdList* out;
  void add(std::string_view token) {
    if (const auto id = interner->find(token)) out->push_back(*id);
  }
};

/// One tokenization pass over a message/text, generic over the output sink.
/// All lower-casing and prefixing goes through a reused scratch buffer so
/// the id path performs no per-token allocation. The emitted byte streams
/// are identical for every sink.
template <typename Sink>
class Emitter {
 public:
  Emitter(const TokenizerOptions& opts, Sink sink) : opts_(opts), sink_(sink) {
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
      scratch_ +=
          static_cast<char>(std::tolower(static_cast<unsigned char>(w[0])));
      scratch_ += ' ';
      scratch_ += std::to_string(w.size() / 10 * 10);
      sink_.add(scratch_);
    }
    std::size_t start = 0;
    for (std::size_t i = 0; i <= w.size(); ++i) {
      bool boundary = i == w.size() ||
                      !(std::isalnum(static_cast<unsigned char>(w[i])) != 0);
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
      while (i < text.size() && util::is_space(text[i])) ++i;
      std::size_t start = i;
      while (i < text.size() && !util::is_space(text[i])) ++i;
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
  /// Emits prefix + ascii_lower(body) through the scratch buffer.
  void add_lower(std::string_view prefix, std::string_view body) {
    scratch_.assign(prefix.data(), prefix.size());
    for (char c : body) scratch_.push_back(ascii_lower(c));
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
      while (i < s.size() && util::is_space(s[i])) ++i;
      std::size_t start = i;
      while (i < s.size() && !util::is_space(s[i])) ++i;
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

TokenList Tokenizer::tokenize(const email::Message& msg) const {
  TokenList out;
  Emitter<StringSink> emitter(opts_, StringSink{&out});
  emitter.message(msg);
  return out;
}

TokenList Tokenizer::tokenize_text(std::string_view text) const {
  TokenList out;
  Emitter<StringSink> emitter(opts_, StringSink{&out});
  emitter.text(text);
  return out;
}

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
  Emitter<KnownIdSink> emitter(opts_, KnownIdSink{&interner, &out});
  emitter.message(msg);
  return out;
}

TokenSet unique_tokens(const TokenList& tokens) {
  TokenSet set = tokens;
  std::sort(set.begin(), set.end());
  set.erase(std::unique(set.begin(), set.end()), set.end());
  return set;
}

TokenIdSet unique_token_ids(TokenIdList ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

TokenIdSet intern_tokens(const TokenSet& tokens, TokenInterner& interner) {
  TokenIdList ids;
  ids.reserve(tokens.size());
  for (const auto& t : tokens) ids.push_back(interner.intern(t));
  // A deduplicated string set maps to distinct ids; only the order changes.
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace sbx::spambayes
