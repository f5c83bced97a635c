// Tests for spambayes/tokenizer: word extraction rules, skip tokens, URL
// crunching, header prefixing, MIME integration.
#include "spambayes/tokenizer.h"

#include <algorithm>
#include <cctype>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "corpus/generator.h"
#include "email/builder.h"
#include "email/mime.h"
#include "email/rfc2822.h"
#include "support/token_ids.h"
#include "util/random.h"
#include "util/strings.h"

namespace sbx::spambayes {
namespace {

using test::spellings;

/// A token stream or set, spelled out.
using Words = std::vector<std::string>;

bool contains(const Words& tokens, const std::string& t) {
  return std::find(tokens.begin(), tokens.end(), t) != tokens.end();
}

TEST(Tokenizer, BasicWordsLowercased) {
  Tokenizer tok;
  auto tokens = spellings(tok.tokenize_text_ids("Hello World FOO bar"));
  EXPECT_TRUE(contains(tokens, "hello"));
  EXPECT_TRUE(contains(tokens, "world"));
  EXPECT_TRUE(contains(tokens, "foo"));
  EXPECT_TRUE(contains(tokens, "bar"));
}

TEST(Tokenizer, ShortWordsDropped) {
  Tokenizer tok;
  auto tokens = spellings(tok.tokenize_text_ids("I am ok yes"));
  EXPECT_FALSE(contains(tokens, "i"));
  EXPECT_FALSE(contains(tokens, "am"));
  EXPECT_FALSE(contains(tokens, "ok"));
  EXPECT_TRUE(contains(tokens, "yes"));
}

TEST(Tokenizer, PunctuationStripped) {
  Tokenizer tok;
  auto tokens =
      spellings(tok.tokenize_text_ids("(hello), \"world\"... [foo]?"));
  EXPECT_TRUE(contains(tokens, "hello"));
  EXPECT_TRUE(contains(tokens, "world"));
  EXPECT_TRUE(contains(tokens, "foo"));
}

TEST(Tokenizer, KeepsSpamSignificantCharacters) {
  // SpamBayes deliberately keeps $ and ! because they are spam evidence.
  Tokenizer tok;
  auto tokens = spellings(tok.tokenize_text_ids("win $1000 now!!! don't"));
  EXPECT_TRUE(contains(tokens, "$1000"));
  EXPECT_TRUE(contains(tokens, "now!!!"));
  EXPECT_TRUE(contains(tokens, "don't"));
}

TEST(Tokenizer, LongWordsBecomeSkipTokens) {
  Tokenizer tok;
  auto tokens = spellings(
      tok.tokenize_text_ids("supercalifragilisticexpialidocious regular"));
  // 34 chars -> "skip:s 30".
  EXPECT_TRUE(contains(tokens, "skip:s 30"));
  EXPECT_TRUE(contains(tokens, "regular"));
  // The over-length word itself must not appear.
  EXPECT_FALSE(contains(tokens, "supercalifragilisticexpialidocious"));
}

TEST(Tokenizer, LongWordsSplitOnPunctuationIntoPieces) {
  Tokenizer tok;
  auto tokens =
      spellings(tok.tokenize_text_ids("first-second-third-fourth-fifth"));
  // 31 chars total: skip token plus embedded pieces.
  EXPECT_TRUE(contains(tokens, "skip:f 30"));
  EXPECT_TRUE(contains(tokens, "first"));
  EXPECT_TRUE(contains(tokens, "second"));
  EXPECT_TRUE(contains(tokens, "fifth"));
}

TEST(Tokenizer, SkipTokensCanBeDisabled) {
  TokenizerOptions opts;
  opts.generate_skip_tokens = false;
  Tokenizer tok(opts);
  auto tokens = spellings(tok.tokenize_text_ids("abcdefghijklmnopqrstuvwxyz"));
  for (const auto& t : tokens) {
    EXPECT_NE(t.rfind("skip:", 0), 0u) << t;
  }
}

TEST(Tokenizer, UrlsCrunchedIntoComponents) {
  Tokenizer tok;
  auto tokens = spellings(
      tok.tokenize_text_ids("visit http://pills.offers.example/buy/cheap now"));
  EXPECT_TRUE(contains(tokens, "url:http"));
  EXPECT_TRUE(contains(tokens, "url:pills"));
  EXPECT_TRUE(contains(tokens, "url:offers"));
  EXPECT_TRUE(contains(tokens, "url:example"));
  EXPECT_TRUE(contains(tokens, "url:buy"));
  EXPECT_TRUE(contains(tokens, "url:cheap"));
  EXPECT_TRUE(contains(tokens, "now"));
}

TEST(Tokenizer, HttpsAndWwwUrls) {
  Tokenizer tok;
  auto tokens = spellings(
      tok.tokenize_text_ids("https://secure.example www.plain.example"));
  EXPECT_TRUE(contains(tokens, "url:https"));
  EXPECT_TRUE(contains(tokens, "url:secure"));
  EXPECT_TRUE(contains(tokens, "url:www"));
  EXPECT_TRUE(contains(tokens, "url:plain"));
}

TEST(Tokenizer, UrlTokenizationCanBeDisabled) {
  TokenizerOptions opts;
  opts.tokenize_urls = false;
  Tokenizer tok(opts);
  auto tokens = spellings(tok.tokenize_text_ids("http://host.example/path"));
  for (const auto& t : tokens) EXPECT_NE(t.rfind("url:", 0), 0u) << t;
}

TEST(Tokenizer, HeaderTokensPrefixed) {
  email::Message m = email::MessageBuilder()
                         .from("alice.smith@corp.example")
                         .to("bob@corp.example")
                         .subject("Quarterly Budget Review")
                         .body("body words here\n")
                         .build();
  Tokenizer tok;
  auto tokens = spellings(tok.tokenize_ids(m));
  EXPECT_TRUE(contains(tokens, "subject:quarterly"));
  EXPECT_TRUE(contains(tokens, "subject:budget"));
  EXPECT_TRUE(contains(tokens, "subject:review"));
  EXPECT_TRUE(contains(tokens, "from:alice.smith"));
  EXPECT_TRUE(contains(tokens, "from:corp.example"));
  EXPECT_TRUE(contains(tokens, "to:bob"));
  EXPECT_TRUE(contains(tokens, "body"));
}

TEST(Tokenizer, ShortHeaderWordsKept) {
  email::Message m =
      email::MessageBuilder().subject("RE: it").body("x\n").build();
  Tokenizer tok;
  auto tokens = spellings(tok.tokenize_ids(m));
  // Header tokens keep words of length >= 2 ("re" matters for subjects).
  EXPECT_TRUE(contains(tokens, "subject:re"));
  EXPECT_TRUE(contains(tokens, "subject:it"));
}

TEST(Tokenizer, HeaderTokenizationCanBeDisabled) {
  TokenizerOptions opts;
  opts.tokenize_headers = false;
  email::Message m =
      email::MessageBuilder().subject("secret").body("visible\n").build();
  Tokenizer tok(opts);
  auto tokens = spellings(tok.tokenize_ids(m));
  EXPECT_FALSE(contains(tokens, "subject:secret"));
  EXPECT_TRUE(contains(tokens, "visible"));
}

TEST(Tokenizer, EmptyHeaderMessageYieldsOnlyBodyTokens) {
  // Dictionary attack emails: no headers at all.
  email::Message m;
  m.set_body("alpha beta gamma\n");
  Tokenizer tok;
  auto tokens = spellings(tok.tokenize_ids(m));
  EXPECT_EQ(tokens.size(), 3u);
  for (const auto& t : tokens) {
    EXPECT_EQ(t.find(':'), std::string::npos) << t;
  }
}

TEST(Tokenizer, DecodesMimeBeforeTokenizing) {
  email::Message m;
  m.add_header("Content-Transfer-Encoding", "base64");
  m.set_body(email::encode_base64("hidden payload words"));
  Tokenizer tok;
  auto tokens = spellings(tok.tokenize_ids(m));
  EXPECT_TRUE(contains(tokens, "hidden"));
  EXPECT_TRUE(contains(tokens, "payload"));
}

TEST(Tokenizer, EmptyInputs) {
  Tokenizer tok;
  EXPECT_TRUE(spellings(tok.tokenize_text_ids("")).empty());
  EXPECT_TRUE(spellings(tok.tokenize_text_ids("   \n\t ")).empty());
  EXPECT_TRUE(spellings(tok.tokenize_text_ids("., !? ()")).empty());
  email::Message empty;
  EXPECT_TRUE(spellings(tok.tokenize_ids(empty)).empty());
}

TEST(Tokenizer, UniqueTokenIdsSortedAndDeduplicated) {
  const TokenIdSet set = unique_token_ids({7, 3, 7, 9, 3});
  EXPECT_EQ(set, (TokenIdSet{3, 7, 9}));
  EXPECT_TRUE(unique_token_ids({}).empty());
}

TEST(Tokenizer, BoundaryLengthsRespectOptions) {
  Tokenizer tok;  // min 3, max 12
  auto tokens =
      spellings(tok.tokenize_text_ids("ab abc abcdefghijkl abcdefghijklm"));
  EXPECT_FALSE(contains(tokens, "ab"));          // 2 < min
  EXPECT_TRUE(contains(tokens, "abc"));          // == min
  EXPECT_TRUE(contains(tokens, "abcdefghijkl"));  // == max (12)
  EXPECT_FALSE(contains(tokens, "abcdefghijklm"));  // 13 > max
  EXPECT_TRUE(contains(tokens, "skip:a 10"));       // its skip token
}

TEST(Tokenizer, DeterministicAcrossCalls) {
  Tokenizer tok;
  const char* text = "Some Mixed CASE text with http://a.example/x and "
                     "$500 offers!!!";
  EXPECT_EQ(tok.tokenize_text_ids(text), tok.tokenize_text_ids(text));
}

/// Keeps the first occurrence of each id, in order.
TokenIdList first_occurrences(const TokenIdList& ids) {
  TokenIdList out;
  std::unordered_set<TokenId> seen;
  for (TokenId id : ids) {
    if (seen.insert(id).second) out.push_back(id);
  }
  return out;
}

TEST(Tokenizer, KnownIdsAreTheInternedStreamWithUnknownTokensDropped) {
  email::Message m = email::MessageBuilder()
                         .from("alice@corp.example")
                         .subject("Quarterly Budget budget")
                         .body("budget review http://a.example/offer "
                               "unknownword budget review www.a.example\n")
                         .build();
  Tokenizer tok;
  TokenInterner interner;
  // The stream spelled through the global interner; `interner` starts empty.
  const Words words = spellings(tok.tokenize_ids(m));
  // Intern every other distinct spelling; the rest stay unknown.
  Words distinct = words;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  for (std::size_t i = 0; i < distinct.size(); i += 2) {
    interner.intern(distinct[i]);
  }
  const std::size_t interned = interner.size();

  // The find()-filtered spelled stream, then its first occurrences.
  TokenIdList filtered;
  for (const std::string& t : words) {
    if (const auto id = interner.find(t)) filtered.push_back(*id);
  }
  const TokenIdList expected = first_occurrences(filtered);
  ASSERT_FALSE(expected.empty());
  ASSERT_LT(filtered.size(), words.size());  // some tokens unknown
  ASSERT_LT(expected.size(), filtered.size());   // some known ids repeat
  const TokenIdList known = tok.tokenize_known_ids(m, interner);
  EXPECT_EQ(known, expected);
  EXPECT_EQ(std::unordered_set<TokenId>(known.begin(), known.end()).size(),
            known.size());
  EXPECT_EQ(interner.size(), interned);  // lookup-only: nothing inserted

  // Once everything is interned, the known ids are the first occurrences
  // of the full id stream.
  const TokenIdList all = tok.tokenize_ids(m, interner);
  EXPECT_EQ(tok.tokenize_known_ids(m, interner), first_occurrences(all));
  EXPECT_EQ(interner.size(), distinct.size());
}

TEST(Tokenizer, KnownIdsDeduplicateBeyondTheBodySizedSet) {
  // The seen-id set is sized from the body; header tokens can outnumber
  // it many times over, so this message makes it grow repeatedly.
  std::string subject;
  for (int i = 0; i < 600; ++i) {
    subject += "word" + std::to_string(i % 300) + " ";
  }
  const email::Message m =
      email::MessageBuilder().subject(subject).body("tiny\n").build();
  Tokenizer tok;
  TokenInterner interner;
  const Words words = spellings(tok.tokenize_ids(m));
  for (const std::string& t : words) interner.intern(t);
  const std::size_t interned = interner.size();
  ASSERT_GT(interned, 300u);
  TokenIdList stream;
  for (const std::string& t : words) stream.push_back(*interner.find(t));
  EXPECT_EQ(tok.tokenize_known_ids(m, interner), first_occurrences(stream));
  EXPECT_EQ(interner.size(), interned);
}

// --- byte-class oracle ----------------------------------------------------
// A reference for the body rules written with the C-locale definitions:
// std::isalnum, util::is_space and three istarts_with calls per chunk.
// The emitter's byte-class table must give these answers for every byte.

bool ref_is_word_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '\'' ||
         c == '-' || c == '$' || c == '!';
}

std::string_view ref_strip_punct(std::string_view w) {
  std::size_t b = 0;
  std::size_t e = w.size();
  while (b < e && !ref_is_word_char(w[b])) ++b;
  while (e > b && !ref_is_word_char(w[e - 1])) --e;
  return w.substr(b, e - b);
}

void ref_word(const TokenizerOptions& o, std::string_view word,
              Words& out) {
  const std::string_view w = ref_strip_punct(word);
  if (w.empty() || w.size() < o.min_token_length) return;
  if (w.size() <= o.max_token_length) {
    out.push_back(util::to_lower(w));
    return;
  }
  if (o.generate_skip_tokens) {
    std::string skip = "skip:";
    skip += static_cast<char>(std::tolower(static_cast<unsigned char>(w[0])));
    skip += ' ';
    skip += std::to_string(w.size() / 10 * 10);
    out.push_back(skip);
  }
  std::size_t start = 0;
  for (std::size_t i = 0; i <= w.size(); ++i) {
    if (i == w.size() || std::isalnum(static_cast<unsigned char>(w[i])) == 0) {
      const std::string_view piece = w.substr(start, i - start);
      if (i > start && piece.size() >= o.min_token_length &&
          piece.size() <= o.max_token_length && piece.size() < w.size()) {
        out.push_back(util::to_lower(piece));
      }
      start = i + 1;
    }
  }
}

void ref_url(const TokenizerOptions& o, std::string_view rest,
             Words& out) {
  if (util::istarts_with(rest, "http://")) {
    out.push_back("url:http");
    rest.remove_prefix(7);
  } else if (util::istarts_with(rest, "https://")) {
    out.push_back("url:https");
    rest.remove_prefix(8);
  }
  const std::size_t path_start = rest.find('/');
  for (const std::string& label : util::split(rest.substr(0, path_start), '.')) {
    const std::string_view piece = ref_strip_punct(label);
    if (!piece.empty()) out.push_back("url:" + util::to_lower(piece));
  }
  if (path_start == std::string_view::npos) return;
  for (const std::string& seg :
       util::split(rest.substr(path_start + 1), '/')) {
    const std::string_view piece = ref_strip_punct(seg);
    if (piece.size() >= o.min_token_length &&
        piece.size() <= o.max_token_length) {
      out.push_back("url:" + util::to_lower(piece));
    }
  }
}

Words ref_tokenize_text(const TokenizerOptions& o, std::string_view text) {
  Words out;
  std::size_t i = 0;
  while (i < text.size()) {
    while (i < text.size() && util::is_space(text[i])) ++i;
    const std::size_t start = i;
    while (i < text.size() && !util::is_space(text[i])) ++i;
    if (i == start) continue;
    const std::string_view chunk = text.substr(start, i - start);
    if (o.tokenize_urls && (util::istarts_with(chunk, "http://") ||
                            util::istarts_with(chunk, "https://") ||
                            util::istarts_with(chunk, "www."))) {
      ref_url(o, ref_strip_punct(chunk), out);
    } else {
      ref_word(o, chunk, out);
    }
  }
  return out;
}

TEST(Tokenizer, ByteClassesMatchTheCLocaleRulesForEveryByte) {
  // Every byte value inside, before and after words, URL-like chunks and
  // chunks that start like a URL (H..., W..., Www.) but are not one.
  std::string body;
  for (int b = 0; b < 256; ++b) {
    const std::string c(1, static_cast<char>(b));
    for (const std::string& chunk :
         {"ab" + c + "cd", c + "word", "word" + c, c + "Hello" + c,
          "http://ex" + c + "ample.org/pa" + c + "th/seg",
          c + "http://host.example/p", "HTTPS://A" + c + ".B/C" + c + "DEF",
          "H" + c + "ttp://a.b", "W" + c + "ww.c.d", "Www." + c + "site.ex",
          "www" + c + ".site", "hx" + c, "Wy" + c,
          "abcdefghijklmn" + c + "opqrstuvwxyz" + c + "0123456789012",
          "Mixed" + c + "CASE$" + c + "it's!" + c}) {
      body += chunk;
      body += ' ';
    }
  }
  for (const TokenizerOptions& o :
       {TokenizerOptions{}, [] {
          TokenizerOptions no_urls;
          no_urls.tokenize_urls = false;
          no_urls.generate_skip_tokens = false;
          return no_urls;
        }()}) {
    const Tokenizer tok(o);
    const Words expected = ref_tokenize_text(o, body);
    ASSERT_GT(expected.size(), 256u * 20);
    EXPECT_EQ(spellings(tok.tokenize_text_ids(body)), expected);
    EXPECT_EQ(spellings(tok.tokenize_ids(email::Message({}, body))),
              expected);
  }
  for (int b = 0; b < 256; ++b) {
    const std::string w = std::string(1, static_cast<char>(b)) + "x-y" +
                          std::string(1, static_cast<char>(b));
    EXPECT_EQ(strip_punct(w), ref_strip_punct(w)) << "byte " << b;
  }
}

TEST(Tokenizer, IdStreamSpellingDoesNotDependOnTheInternerOnGeneratedMail) {
  const corpus::TrecLikeGenerator gen;
  util::Rng rng(15);
  const Tokenizer tok;
  TokenInterner interner;
  for (int i = 0; i < 500; ++i) {
    const email::Message m =
        i % 2 == 0 ? gen.generate_ham(rng) : gen.generate_spam(rng);
    const TokenIdList ids = tok.tokenize_ids(m, interner);
    ASSERT_EQ(spellings(ids, interner), spellings(tok.tokenize_ids(m)))
        << "message " << i;
    ASSERT_EQ(tok.tokenize_known_ids(m, interner), first_occurrences(ids))
        << "message " << i;
  }
}

}  // namespace
}  // namespace sbx::spambayes
