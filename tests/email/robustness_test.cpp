// Robustness tests: the email substrate faces adversarial input by
// definition (spam is malformed mail). Arbitrary bytes must never crash,
// hang, or throw anything other than the library's typed errors, and the
// full pipeline (parse -> MIME -> tokenize) must stay total.
#include <string>

#include <gtest/gtest.h>

#include "email/mbox.h"
#include "email/mime.h"
#include "email/rfc2822.h"
#include "spambayes/tokenizer.h"
#include "util/error.h"
#include "util/random.h"

namespace sbx::email {
namespace {

std::string random_bytes(util::Rng& rng, std::size_t max_len) {
  std::string s;
  std::size_t len = rng.index(max_len + 1);
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(static_cast<char>(rng.uniform_int(0, 255)));
  }
  return s;
}

// Mixes random bytes with structural fragments so the fuzz inputs actually
// reach the interesting parser states.
std::string structured_fuzz(util::Rng& rng) {
  static const char* kFragments[] = {
      "From ",          "From: a@b\n",
      "Content-Type: ", "multipart/mixed; boundary=",
      "--",             "\r\n",
      "\n\n",           "Content-Transfer-Encoding: base64\n",
      "=3D",            "=\n",
      ">From ",         "Subject: ",
      ": no name\n",    "\tcontinuation\n",
  };
  std::string s;
  std::size_t pieces = 1 + rng.index(20);
  for (std::size_t i = 0; i < pieces; ++i) {
    if (rng.bernoulli(0.5)) {
      s += kFragments[rng.index(std::size(kFragments))];
    } else {
      s += random_bytes(rng, 40);
    }
  }
  return s;
}

class ParserFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ParserFuzz, ParseMessageIsTotal) {
  util::Rng rng(GetParam());
  for (int round = 0; round < 200; ++round) {
    std::string input = structured_fuzz(rng);
    // Lenient parsing never throws; strict may throw ParseError only.
    Message m = parse_message(input);
    // Rendering the result must also be total.
    (void)render_message(m);
    try {
      ParseOptions strict;
      strict.lenient = false;
      (void)parse_message(input, strict);
    } catch (const ParseError&) {
      // acceptable
    }
  }
}

TEST_P(ParserFuzz, MimeExtractionIsTotal) {
  util::Rng rng(GetParam() + 1'000);
  for (int round = 0; round < 200; ++round) {
    Message m = parse_message(structured_fuzz(rng));
    std::string text = extract_text(m);
    // And the tokenizer consumes whatever comes out.
    spambayes::Tokenizer tok;
    spambayes::TokenInterner interner;
    (void)tok.tokenize_ids(m, interner);
    (void)tok.tokenize_text_ids(text, interner);
  }
}

TEST_P(ParserFuzz, MboxParsingThrowsOnlyTypedErrors) {
  util::Rng rng(GetParam() + 2'000);
  for (int round = 0; round < 200; ++round) {
    try {
      auto messages = parse_mbox(structured_fuzz(rng));
      // Successful parses re-render without crashing.
      (void)render_mbox(messages);
    } catch (const ParseError&) {
      // acceptable: junk before the first envelope, or no messages
    }
  }
}

TEST_P(ParserFuzz, CodecsAreTotal) {
  util::Rng rng(GetParam() + 3'000);
  for (int round = 0; round < 300; ++round) {
    std::string input = random_bytes(rng, 300);
    (void)decode_base64(input);
    (void)decode_quoted_printable(input);
    // Round trips on arbitrary bytes hold exactly.
    EXPECT_EQ(decode_base64(encode_base64(input)), input);
    EXPECT_EQ(decode_quoted_printable(encode_quoted_printable(input)), input);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz,
                         ::testing::Values(1u, 7u, 42u, 1234u));

}  // namespace
}  // namespace sbx::email
