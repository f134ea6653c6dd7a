"""Print the seconds one fresh interpreter spends setting pimcrypt up.

Covers `import pimcrypt` and the lazy set-up the first operation would
otherwise pay: the bundled config parse, the fused AES tables and the
default kernel costs. Interpreter start is not included.
"""

import time

start = time.perf_counter()

import pimcrypt  # noqa: E402
from pimcrypt import machine, orchestrator  # noqa: E402

machine.bundled_default_config()
pimcrypt.aes128_encrypt_buffer(bytes(16), bytes(176))
orchestrator.plan_job(orchestrator.AesWorkload(16))
print(time.perf_counter() - start)
