/* Stand-in for liboqs: the OQS_SIG entry points over a toy keyed tag.
 *
 * Build: cc -shared -fPIC -DSTANDIN_VERSION='"0.16.0"' [-DSTANDIN_SUF_CMA]
 * STANDIN_SUF_CMA selects the 0.16 field order of OQS_SIG, without it the
 * 0.12 one. Not a signature scheme: anyone holding the public key can tag. */
#include <stdbool.h>
#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

typedef struct {
    const char *method_name;
    const char *alg_version;
    uint8_t claimed_nist_level;
    bool euf_cma;
#ifdef STANDIN_SUF_CMA
    bool suf_cma;
#endif
    bool sig_with_ctx_support;
    size_t length_public_key, length_secret_key, length_signature;
    void *keypair, *sign, *sign_with_ctx_str, *verify, *verify_with_ctx_str;
} OQS_SIG;

const size_t standin_offset_public_key = offsetof(OQS_SIG, length_public_key);
const size_t standin_offset_secret_key = offsetof(OQS_SIG, length_secret_key);
const size_t standin_offset_signature = offsetof(OQS_SIG, length_signature);
const size_t standin_sizeof = sizeof(OQS_SIG);
int standin_live = 0; /* OQS_SIG structs allocated and not yet freed */

#define KEY 32 /* tag key: the first KEY bytes of both keys */
static const OQS_SIG enabled[] = {
    {.method_name = "ML-DSA-44", .length_public_key = 1312,
     .length_secret_key = 2560, .length_signature = 2420},
    {.method_name = "SPHINCS+-SHA2-128f-simple", .length_public_key = 32,
     .length_secret_key = 64, .length_signature = 17088},
    {.method_name = "cross-rsdp-128-fast", .length_public_key = 77,
     .length_secret_key = 32, .length_signature = 18432},
};
static uint64_t counter;

const char *OQS_version(void) { return STANDIN_VERSION; }
void OQS_init(void) {}

OQS_SIG *OQS_SIG_new(const char *name) {
    for (size_t i = 0; i < sizeof enabled / sizeof *enabled; i++) {
        if (strcmp(name, enabled[i].method_name) != 0) continue;
        OQS_SIG *sig = malloc(sizeof *sig);
        if (sig != NULL) { *sig = enabled[i]; standin_live++; }
        return sig;
    }
    return NULL;
}

void OQS_SIG_free(OQS_SIG *sig) { if (sig != NULL) { standin_live--; free(sig); } }

static uint64_t step(uint64_t h) { return h * 6364136223846793005u + 1442695040888963407u; }

int OQS_SIG_keypair(const OQS_SIG *sig, uint8_t *pk, uint8_t *sk) {
    uint64_t h = step(++counter ^ (uintptr_t)pk);
    for (size_t i = 0; i < sig->length_public_key; i++) pk[i] = (uint8_t)((h = step(h)) >> 56);
    memset(sk, 0, sig->length_secret_key);
    memcpy(sk, pk, KEY);
    return 0;
}

/* the tag fills length_signature - 1 bytes, so callers must honour out_len */
static void tag(const OQS_SIG *sig, const uint8_t *key, const uint8_t *m, size_t m_len, uint8_t *out) {
    uint64_t h = 14695981039346656037u;
    for (size_t i = 0; i < KEY; i++) h = (h ^ key[i]) * 1099511628211u;
    for (size_t i = 0; i < m_len; i++) h = (h ^ m[i]) * 1099511628211u;
    for (size_t i = 0; i + 1 < sig->length_signature; i++) out[i] = (uint8_t)((h = step(h)) >> 56);
}

int OQS_SIG_sign(const OQS_SIG *sig, uint8_t *out, size_t *out_len, const uint8_t *m, size_t m_len, const uint8_t *sk) {
    tag(sig, sk, m, m_len, out);
    *out_len = sig->length_signature - 1;
    return 0;
}

int OQS_SIG_verify(const OQS_SIG *sig, const uint8_t *m, size_t m_len, const uint8_t *s, size_t s_len, const uint8_t *pk) {
    uint8_t expected[sig->length_signature];
    if (s_len != sig->length_signature - 1) return -1;
    tag(sig, pk, m, m_len, expected);
    return memcmp(expected, s, s_len) == 0 ? 0 : -1;
}
