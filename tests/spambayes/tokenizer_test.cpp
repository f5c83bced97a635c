// Tests for spambayes/tokenizer: word extraction rules, skip tokens, URL
// crunching, header prefixing, MIME integration.
#include "spambayes/tokenizer.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "email/builder.h"
#include "email/mime.h"
#include "email/rfc2822.h"

namespace sbx::spambayes {
namespace {

bool contains(const TokenList& tokens, const std::string& t) {
  return std::find(tokens.begin(), tokens.end(), t) != tokens.end();
}

TEST(Tokenizer, BasicWordsLowercased) {
  Tokenizer tok;
  auto tokens = tok.tokenize_text("Hello World FOO bar");
  EXPECT_TRUE(contains(tokens, "hello"));
  EXPECT_TRUE(contains(tokens, "world"));
  EXPECT_TRUE(contains(tokens, "foo"));
  EXPECT_TRUE(contains(tokens, "bar"));
}

TEST(Tokenizer, ShortWordsDropped) {
  Tokenizer tok;
  auto tokens = tok.tokenize_text("I am ok yes");
  EXPECT_FALSE(contains(tokens, "i"));
  EXPECT_FALSE(contains(tokens, "am"));
  EXPECT_FALSE(contains(tokens, "ok"));
  EXPECT_TRUE(contains(tokens, "yes"));
}

TEST(Tokenizer, PunctuationStripped) {
  Tokenizer tok;
  auto tokens = tok.tokenize_text("(hello), \"world\"... [foo]?");
  EXPECT_TRUE(contains(tokens, "hello"));
  EXPECT_TRUE(contains(tokens, "world"));
  EXPECT_TRUE(contains(tokens, "foo"));
}

TEST(Tokenizer, KeepsSpamSignificantCharacters) {
  // SpamBayes deliberately keeps $ and ! because they are spam evidence.
  Tokenizer tok;
  auto tokens = tok.tokenize_text("win $1000 now!!! don't");
  EXPECT_TRUE(contains(tokens, "$1000"));
  EXPECT_TRUE(contains(tokens, "now!!!"));
  EXPECT_TRUE(contains(tokens, "don't"));
}

TEST(Tokenizer, LongWordsBecomeSkipTokens) {
  Tokenizer tok;
  auto tokens =
      tok.tokenize_text("supercalifragilisticexpialidocious regular");
  // 34 chars -> "skip:s 30".
  EXPECT_TRUE(contains(tokens, "skip:s 30"));
  EXPECT_TRUE(contains(tokens, "regular"));
  // The over-length word itself must not appear.
  EXPECT_FALSE(contains(tokens, "supercalifragilisticexpialidocious"));
}

TEST(Tokenizer, LongWordsSplitOnPunctuationIntoPieces) {
  Tokenizer tok;
  auto tokens = tok.tokenize_text("first-second-third-fourth-fifth");
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
  auto tokens = tok.tokenize_text("abcdefghijklmnopqrstuvwxyz");
  for (const auto& t : tokens) {
    EXPECT_NE(t.rfind("skip:", 0), 0u) << t;
  }
}

TEST(Tokenizer, UrlsCrunchedIntoComponents) {
  Tokenizer tok;
  auto tokens =
      tok.tokenize_text("visit http://pills.offers.example/buy/cheap now");
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
  auto tokens = tok.tokenize_text("https://secure.example www.plain.example");
  EXPECT_TRUE(contains(tokens, "url:https"));
  EXPECT_TRUE(contains(tokens, "url:secure"));
  EXPECT_TRUE(contains(tokens, "url:www"));
  EXPECT_TRUE(contains(tokens, "url:plain"));
}

TEST(Tokenizer, UrlTokenizationCanBeDisabled) {
  TokenizerOptions opts;
  opts.tokenize_urls = false;
  Tokenizer tok(opts);
  auto tokens = tok.tokenize_text("http://host.example/path");
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
  auto tokens = tok.tokenize(m);
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
  auto tokens = tok.tokenize(m);
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
  auto tokens = tok.tokenize(m);
  EXPECT_FALSE(contains(tokens, "subject:secret"));
  EXPECT_TRUE(contains(tokens, "visible"));
}

TEST(Tokenizer, EmptyHeaderMessageYieldsOnlyBodyTokens) {
  // Dictionary attack emails: no headers at all.
  email::Message m;
  m.set_body("alpha beta gamma\n");
  Tokenizer tok;
  auto tokens = tok.tokenize(m);
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
  auto tokens = tok.tokenize(m);
  EXPECT_TRUE(contains(tokens, "hidden"));
  EXPECT_TRUE(contains(tokens, "payload"));
}

TEST(Tokenizer, EmptyInputs) {
  Tokenizer tok;
  EXPECT_TRUE(tok.tokenize_text("").empty());
  EXPECT_TRUE(tok.tokenize_text("   \n\t ").empty());
  EXPECT_TRUE(tok.tokenize_text("., !? ()").empty());
  email::Message empty;
  EXPECT_TRUE(tok.tokenize(empty).empty());
}

TEST(Tokenizer, UniqueTokensSortedAndDeduplicated) {
  TokenList list = {"bbb", "aaa", "bbb", "ccc", "aaa"};
  TokenSet set = unique_tokens(list);
  ASSERT_EQ(set.size(), 3u);
  EXPECT_EQ(set[0], "aaa");
  EXPECT_EQ(set[1], "bbb");
  EXPECT_EQ(set[2], "ccc");
  EXPECT_TRUE(unique_tokens({}).empty());
}

TEST(Tokenizer, BoundaryLengthsRespectOptions) {
  Tokenizer tok;  // min 3, max 12
  auto tokens = tok.tokenize_text("ab abc abcdefghijkl abcdefghijklm");
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
  EXPECT_EQ(tok.tokenize_text(text), tok.tokenize_text(text));
}

TEST(Tokenizer, KnownIdsAreTheInternedStreamWithUnknownTokensDropped) {
  email::Message m = email::MessageBuilder()
                         .from("alice@corp.example")
                         .subject("Quarterly Budget")
                         .body("budget review http://a.example/offer "
                               "unknownword budget\n")
                         .build();
  Tokenizer tok;
  TokenInterner interner;
  const TokenList spellings = tok.tokenize(m);
  // Intern every other distinct spelling; the rest stay unknown.
  const TokenSet distinct = unique_tokens(spellings);
  for (std::size_t i = 0; i < distinct.size(); i += 2) {
    interner.intern(distinct[i]);
  }
  const std::size_t interned = interner.size();

  TokenIdList expected;
  for (const std::string& t : spellings) {
    if (const auto id = interner.find(t)) expected.push_back(*id);
  }
  ASSERT_FALSE(expected.empty());
  ASSERT_LT(expected.size(), spellings.size());
  EXPECT_EQ(tok.tokenize_known_ids(m, interner), expected);
  EXPECT_EQ(interner.size(), interned);  // lookup-only: nothing inserted

  // Once everything is interned, the known stream is the full id stream.
  const TokenIdList all = tok.tokenize_ids(m, interner);
  EXPECT_EQ(tok.tokenize_known_ids(m, interner), all);
}

}  // namespace
}  // namespace sbx::spambayes
