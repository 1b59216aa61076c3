/* adapter_bci — a hand-written adapter around a BCI-firmware-style
 * protocol state machine, in plain C with no harness code: the kind of
 * thin shim a real legacy integration would bolt onto an existing binary
 * (docs/ADAPTERS.md describes the protocol it speaks, v2).
 *
 * The firmware is input-deterministic over the signals {hello, cmd} in and
 * {ack, done} out:
 *
 *   offline --{hello}--> acking          (link request accepted, silent)
 *   acking  --{}------>  ready  / ack    (acknowledges one period later)
 *   ready   --{cmd}--->  busy            (command accepted, silent)
 *   busy    --{}------>  ready  / done   (completes one period later)
 *
 * offline and ready tolerate empty periods; every other input set is
 * refused (notably a second hello once linked, or a cmd while busy).
 * models/bci.muml carries the pattern this firmware is integrated under
 * and firmwareRef, the in-process mirror the differential tests compare
 * against.
 */

#define _POSIX_C_SOURCE 200809L

#include <stdio.h>
#include <stdlib.h>
#include <string.h>

enum bci_state { BCI_OFFLINE, BCI_ACKING, BCI_READY, BCI_BUSY };

static const char *state_name(enum bci_state s) {
  switch (s) {
    case BCI_OFFLINE:
      return "offline";
    case BCI_ACKING:
      return "acking";
    case BCI_READY:
      return "ready";
    case BCI_BUSY:
      return "busy";
  }
  return "?";
}

/* Signal sets are bit masks over the interface, in the model's order. */
static const char *const kSignals[] = {"hello", "cmd", "ack", "done"};
enum { SIG_HELLO = 1, SIG_CMD = 2, SIG_ACK = 4, SIG_DONE = 8, SIG_COUNT = 4 };

/* One period: returns the output mask, or -1 when the inputs are refused
 * (the state is then unchanged). */
static int bci_step(enum bci_state *st, int in) {
  const int hello = (in & SIG_HELLO) != 0;
  const int cmd = (in & SIG_CMD) != 0;
  switch (*st) {
    case BCI_OFFLINE:
      if (hello && !cmd) {
        *st = BCI_ACKING;
        return 0;
      }
      return hello || cmd ? -1 : 0;
    case BCI_ACKING:
      if (hello || cmd) return -1;
      *st = BCI_READY;
      return SIG_ACK;
    case BCI_READY:
      if (cmd && !hello) {
        *st = BCI_BUSY;
        return 0;
      }
      return hello || cmd ? -1 : 0;
    case BCI_BUSY:
      if (hello || cmd) return -1;
      *st = BCI_READY;
      return SIG_DONE;
  }
  return -1;
}

/* Decodes the string literal at *p, signal names separated by spaces
 * (names never contain escapes), and moves *p past it. Returns the mask,
 * or -1 when *p is not such a string or names an unknown signal. */
static int read_set(const char **p) {
  const char *s = *p;
  int mask = 0;
  if (*s != '"') return -1;
  ++s;
  while (*s != '"') {
    const char *word = s;
    size_t n;
    int i;
    if (*s == '\0') return -1;
    if (*s == ' ') {
      ++s;
      continue;
    }
    while (*s != ' ' && *s != '"' && *s != '\0') ++s;
    n = (size_t)(s - word);
    for (i = 0; i < SIG_COUNT; ++i) {
      if (strlen(kSignals[i]) == n && strncmp(word, kSignals[i], n) == 0) {
        break;
      }
    }
    if (i == SIG_COUNT) return -1;
    mask |= 1 << i;
  }
  *p = s + 1;
  return mask;
}

/* The value of "key" in a flat request line, or NULL when it is absent. */
static const char *find_value(const char *line, const char *key) {
  const size_t n = strlen(key);
  const char *p = line;
  while ((p = strstr(p, key)) != NULL) {
    if (p > line && p[-1] == '"' && p[n] == '"') {
      p += n + 1;
      while (*p == ' ' || *p == ':') ++p;
      return p;
    }
    p += n;
  }
  return NULL;
}

/* Reads the next entry of a JSON array of signal-set strings at *p (just
 * past its '[' or an entry) and moves *p past it. Returns the mask, -2 at
 * the closing ']', or -1 when the array is malformed. */
static int next_set(const char **p) {
  while (**p == ' ' || **p == ',') ++*p;
  if (**p == ']') return -2;
  return read_set(p);
}

/* Checks the array of signal-set strings at `value`: every entry names
 * only signals in `allowed`. Returns the position past its '[' and stores
 * its length in *n, or NULL when it is missing or malformed. */
static const char *open_sets(const char *value, int allowed, size_t *n) {
  const char *p;
  int mask;
  if (value == NULL || *value != '[') return NULL;
  p = value + 1;
  *n = 0;
  while ((mask = next_set(&p)) >= 0) {
    if (mask & ~allowed) return NULL;
    ++*n;
  }
  return mask == -2 ? value + 1 : NULL;
}

static void print_set(int mask) {
  const char *sep = "";
  int i;
  putchar('"');
  for (i = 0; i < SIG_COUNT; ++i) {
    if (mask & (1 << i)) {
      printf("%s%s", sep, kSignals[i]);
      sep = " ";
    }
  }
  putchar('"');
}

/* `run`: the whole test from reset, stopping at the first refusal or right
 * after the first output other than the expected one; the firmware stays
 * in the state the run ends in. */
static void run(const char *line, enum bci_state *st) {
  size_t n = 0, n_expect = 0, k, accepted = 0;
  const char *in =
      open_sets(find_value(line, "inputs"), SIG_HELLO | SIG_CMD, &n);
  const char *e = find_value(line, "expect");
  const char *expect =
      e == NULL ? NULL : open_sets(e, SIG_ACK | SIG_DONE, &n_expect);
  const int probe = strstr(line, "\"probe\":true") != NULL;
  const char *p = in;
  enum bci_state replay = BCI_OFFLINE;
  int refused = 0;
  if (in == NULL || (e != NULL && (expect == NULL || n_expect != n))) {
    printf("{\"ok\":false,\"error\":\"malformed run request\"}\n");
    return;
  }
  *st = BCI_OFFLINE;
  printf("{\"ok\":true,\"outputs\":[");
  for (k = 0; k < n; ++k) {
    const int out = bci_step(st, next_set(&p));
    if (out < 0) {
      refused = 1;
      break;
    }
    if (k > 0) putchar(',');
    print_set(out);
    ++accepted;
    if (expect != NULL && out != next_set(&expect)) break;
  }
  printf("]%s", refused ? ",\"refused\":true" : "");
  if (probe) {
    /* Replay the accepted prefix for its states: the machine is
     * deterministic, so the second pass visits the same states. */
    printf(",\"states\":[\"%s\"", state_name(replay));
    for (p = in, k = 0; k < accepted; ++k) {
      (void)bci_step(&replay, next_set(&p));
      printf(",\"%s\"", state_name(replay));
    }
    putchar(']');
  }
  printf("}\n");
}

int main(void) {
  char *line = NULL;
  size_t cap = 0;
  enum bci_state st = BCI_OFFLINE;

  setvbuf(stdout, NULL, _IOLBF, 0);
  /* getline reads lines of any length: a `run` line grows with its test. */
  while (getline(&line, &cap, stdin) != -1) {
    if (strstr(line, "\"cmd\":\"quit\"") != NULL) break;
    if (strstr(line, "\"cmd\":\"hello\"") != NULL) {
      printf(
          "{\"ok\":true,\"version\":2,\"name\":\"bci-firmware\","
          "\"inputs\":\"hello cmd\",\"outputs\":\"ack done\"}\n");
      continue;
    }
    if (strstr(line, "\"cmd\":\"run\"") != NULL) {
      run(line, &st);
      continue;
    }
    if (strstr(line, "\"cmd\":\"reset\"") != NULL) {
      st = BCI_OFFLINE;
      printf("{\"ok\":true}\n");
      continue;
    }
    if (strstr(line, "\"cmd\":\"probe\"") != NULL) {
      printf("{\"ok\":true,\"state\":\"%s\"}\n", state_name(st));
      continue;
    }
    if (strstr(line, "\"cmd\":\"step\"") != NULL) {
      const char *p = find_value(line, "inputs");
      const int in = p == NULL ? 0 : read_set(&p);
      int out;
      if (in < 0 || (in & ~(SIG_HELLO | SIG_CMD))) {
        printf("{\"ok\":false,\"error\":\"unknown input signal\"}\n");
        continue;
      }
      out = bci_step(&st, in);
      if (out < 0) {
        printf("{\"ok\":true,\"refused\":true}\n");
      } else {
        printf("{\"ok\":true,\"outputs\":");
        print_set(out);
        printf("}\n");
      }
      continue;
    }
    printf("{\"ok\":false,\"error\":\"unknown command\"}\n");
  }
  free(line);
  return 0;
}
