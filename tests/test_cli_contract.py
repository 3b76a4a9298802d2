"""The CLI's byte contract: exit code, stdout, stderr and --output file per argv.

Each entry pairs an argv with the sha256 of the JSON list [exit code, stdout,
stderr, output file text], run in-process through `cli.main`.  The --output
file `{out}` holds "old\\n" before the run, so a command that fails before it
writes shows the file left as it was; `{dir}` names a directory and
`{missing}` a path under a directory that does not exist.  The test directory
reads as "{tmp}" in stderr.  A change that alters an argv's bytes on purpose
edits its digest and names the argv in CHANGES.md.

PATCHED entries lower one budget constant ("module.NAME=value") to reach its
exact edge cheaply.
"""

import hashlib
import json
import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from collatzlab import cli as cli_mod
from collatzlab import halfsplit as halfsplit_mod
from collatzlab import identities as ident_mod

MODULES = {"cli": cli_mod, "halfsplit": halfsplit_mod, "identities": ident_mod}

CORPUS = [
    ("", "0a874e0abb83ee73fed2c78b360996cb825a5ae0c0046484e0f5ab4f99e6535a"),
    ("trajectory abc", "aeca96f8e3ea3084d492d0aef8fa426a4a8246157af8c0e40c12296641bbc36f"),
    ("trajectory 27", "f81109e12068a3dc470e166395b27e4f04ce698c6491b9a7d6c703c266842b11"),
    ("trajectory 27 --format json", "591ad40df8099a175f9045ea3ae6396caf4697751e7355994a399e213d860510"),
    ("trajectory 27 --format csv", "275e9dea47d41ab30a9db290c3438bb6ac64c2473d253aa0f2ebb1abe66bf791"),
    ("trajectory 7 --map odd", "9d8b4c11abb643e97ca96671abebbe3162a87309dc3c91fdc200e2f892676979"),
    ("trajectory 7 --map odd --format json", "e30fc281fda0228a542c896ef1769cc970ab0b094d42686d6fc004be6a1e6bcc"),
    ("trajectory 7 --map odd --format csv", "6b64a41a698c5bc80ad6ae13404768e6b5f20db0b9775eec96feabac719351e3"),
    ("trajectory 13 --map anb --a 5 --b 1", "53dd5e35c0269e2e0544ab7677f66c90bcea53d58b69b96d250d7a56c0621d34"),
    ("trajectory 13 --map anb --a 5 --b 1 --format json", "c40d78bdf06edcc96edb68983ea2e78b8d3c4353fe92ad05a4997f6517163402"),
    ("trajectory 13 --map anb --a 5 --b 1 --format csv", "0e163e4a27ac7c01c081e409d284b4ffdd70d0c43d7a0045ddeb7a1ff1855c07"),
    ("trajectory 7 --map anb --a 5 --b 1 --max-steps 40 --format json", "afd07d72b35e0cd681221d7b448cdbef79016ea1acdaaffa6174b0b335d7e929"),
    ("trajectory 7 --map anb --a 5 --b 1 --max-steps 10 --format csv", "e932e56727ae52e0b2e29806bce22883bb4b472db2dabdc6d6e7c91bcd841d2c"),
    ("trajectory 27 --max-steps 10", "04c29fac1d4595b16d4b8e0ac9e44153d5e8dc0b9102feb960475d0eaa66bbbb"),
    ("trajectory 27 --max-steps 10 --format json", "d7d7d80d7312c343456a59766c51070b720ad64a0dcf8f2777e33615b817793f"),
    ("trajectory 27 --max-steps 10 --format csv", "5a848ca732b0e86dac70e4183aed84ede9e67acd01d77162932b3156df43d074"),
    ("trajectory 1", "9137dfbd137a0cc8d574a1d7934ef21b38be0af08414494bc1d726c8f9c5719c"),
    ("trajectory 1 --map odd --format json", "174bcaa86dd11d9bc6719216f87a5d4b271fa72f50407994d9dcc8f708a1541d"),
    ("trajectory 1 --map anb --format csv", "f4fb1adeeb984f9c07f5d940ae60cb385d3f62aeb4aa391555fbed0088e8a651"),
    ("trajectory 1267650600228229401496703205375 --format json", "1b75cb15d2046b7d4a10dc5c34725f67e903b08f7560ac327fee53a83e81d545"),
    ("trajectory 0", "fdbffefb071fa904b1ee5dea752c4c0550e1a396ee416e7d004927c0c1066b3b"),
    ("trajectory -5 --map odd", "fdbffefb071fa904b1ee5dea752c4c0550e1a396ee416e7d004927c0c1066b3b"),
    ("trajectory 27 --max-steps -1", "f50572d7ed9dc017c154ce6fba9c8a0323bea417baf8981b8c9208199ef56704"),
    ("trajectory 4 --map odd", "4c283f2b417d852694c3bc2d94f5672f52e2dc20faa7cf705d24f6d4b87ccc02"),
    ("trajectory 4 --map anb", "4c283f2b417d852694c3bc2d94f5672f52e2dc20faa7cf705d24f6d4b87ccc02"),
    ("trajectory 6 --map odd --max-steps 0", "cb9a31048409f1ce01d7a8287789ceb0dca23defdec86b4a6d3560fb275002a7"),
    ("trajectory 6 --map odd --max-steps 0 --format json", "cb9a31048409f1ce01d7a8287789ceb0dca23defdec86b4a6d3560fb275002a7"),
    ("trajectory 6 --map anb --max-steps 0", "cb9a31048409f1ce01d7a8287789ceb0dca23defdec86b4a6d3560fb275002a7"),
    ("trajectory 6 --map anb --max-steps 0 --format json", "cb9a31048409f1ce01d7a8287789ceb0dca23defdec86b4a6d3560fb275002a7"),
    ("trajectory 7 --map anb --a 4", "370c835fcb9c08610bd5a7b3f102ccf49554b3ff414501040b48d3341bf622ab"),
    ("trajectory 7 --map anb --b 2", "175d0a08f241b18ba0187c195e513d966707eb50b7aed28f7296bc8afce868d1"),
    ("trajectory 7 --map odd --a 4", "9d8b4c11abb643e97ca96671abebbe3162a87309dc3c91fdc200e2f892676979"),
    ("trajectory 0 --map anb --a 4", "fdbffefb071fa904b1ee5dea752c4c0550e1a396ee416e7d004927c0c1066b3b"),
    ("trajectory 27 --max-steps -1 --map anb --a 4", "f50572d7ed9dc017c154ce6fba9c8a0323bea417baf8981b8c9208199ef56704"),
    ("trajectory 7 --map anb --a 1", "54d0e6cd7cecad729f9d23c74912df3d1a7893c9a3ebcc9dd44fa7dc1379f87b"),
    ("verify lemma7 --max-k 6 --samples 10", "dd963e178c1c2564eeda858ea2ba2001f5f95fd699d6744c22fa25e8a5caf345"),
    ("verify lemma7 --max-k 6 --samples 10 --format json", "5f45aa5dc5e0025b92a0c8bbc862a7d944fa9bb26e7989ebdb5ba642bb436b87"),
    ("verify lemma7 --max-k 6 --samples 10 --format csv", "8b32538b65b4eaf0c9d5f358629846ccff956aaf6463dee76588819a367e34ca"),
    ("verify lemma7 --max-k 0", "e7819ce892107071bfe38bb4be02bc7f0fea7c91f8f6a6dfe3683f50bae24963"),
    ("verify lemma7 --samples -1", "d77afcd3765228eb0ba6a24f0b68638abe12d4daf5267fe5c1f2d4682835aaf9"),
    ("verify lemma7 --max-k 0 --samples -1", "e7819ce892107071bfe38bb4be02bc7f0fea7c91f8f6a6dfe3683f50bae24963"),
    ("verify lemma7 --samples 0 --format json", "8dd97b2e73732300854addf356e51ede040ce751175fb06961368db07afd24bd"),
    ("verify lemma7 --max-k 30", "23eb3225bcd989aef87354e4e4f6f2047be878baaec36ff854f9c21952901b60"),
    ("verify lemma7 --max-k 30 --format json", "1ad0078e835aae2a3b6fd162bbbda83ee52243b60bd569acf925711975b4b2a5"),
    ("verify lemma7 --max-k 1000000000 --format csv", "359ee52bd263e02fa3a0d17f893cb369bc24d7f999193efa647e9175578bf8a3"),
    ("verify lemma7 --seed -1", "ff74195cf337d30dbcd6b61b315c2b6ef7e74fe52297b5734a5be0fd9cb14f80"),
    ("verify lemma7 --max-k 28 --samples 0", "56f257dc089636b2cdc62e8912362765548ba8fa75e416e87d8c5b84efc10c61"),
    ("verify eq2 --max-x0 99", "e8d3ed5d169ff6730c087fb42d250968756c68550bb45a5ef0619d836169a085"),
    ("verify eq2 --max-x0 99 --format json", "3e7fec9636198a4d33e6e91c06caab08a4e686591193c212b6ff1035755f7391"),
    ("verify eq2 --max-x0 99 --format csv", "6653f24787f203f54b2d4f6f577a51a1b019b1c723d5a7aff1960d12ee4e18a4"),
    ("verify eq2 --max-x0 0", "98620a362b903457c522e97e3284082399ed5619d9d078d4b0edbe1dd15d76cf"),
    ("verify eq2 --max-x0 -5 --format json", "7d25afe5ad7636ba75f0285fb6c6f3260dc159f7ca170a870d92e1c67f8f4305"),
    ("verify eq2 --max-x0 99 --max-n -1 --max-k 0 --samples -1 --M 0 --a 4", "e8d3ed5d169ff6730c087fb42d250968756c68550bb45a5ef0619d836169a085"),
    ("verify eq2 --max-x0 2097153", "3bd838103600a196df455b1acc249a4ce7512c18b875547758f7f0b3f278e2e2"),
    ("verify eq2 --max-x0 2097153 --format json", "d6472a42106b9ed91d903d05930ab1a69ce9954813f202cd0bf37f4dd6d7bf40"),
    ("verify eq2 --max-x0 2097153 --format csv", "497436d6133a44bdfebb228bd4c5050a949c74622ee2316fecf299421092e001"),
    ("verify bohm --max-x0 99", "ac01816e46b24d15c17a3088c0f3d66335a9c0f41f7eb90af43e4b09b972eae3"),
    ("verify bohm --max-x0 99 --format json", "0a9b04673ea2b38fa80db51cabe563eb9e91d0c145d06bb8ff0dd5dc0095b8ba"),
    ("verify bohm --max-x0 99 --format csv", "3fb46d97305b66240412782b1b855ad31c99e6930f7c519895f761742d8bd1bf"),
    ("verify bohm --max-x0 -1", "7d25afe5ad7636ba75f0285fb6c6f3260dc159f7ca170a870d92e1c67f8f4305"),
    ("verify bohm --max-x0 0 --format json", "fd0c43cdb7e1d1559856f0cd50cb0a5f1c2365374c94de73b53cced3ed11f387"),
    ("verify bohm --max-x0 2097153 --format json", "4e22656f558662d9697752705460f4e287ddac30cc8901418696347082dc86c3"),
    ("verify eq2 --max-x0 18446744073709551617", "5f7cab5bf10b574f6d1c955e39b5ca0406f1a98717b2e4ab2d4587f118069055"),
    ("verify bohm --max-x0 18446744073709551616", "12434cad1806330845e9677e851855e6ee3d83a474e0f371fe18923c2b00a47c"),
    ("verify geom --max-n 5 --max-m 5", "db683c7af4fb53bf857fe6fca7417b57aa85c6fadd88a252fed7f541823c51c8"),
    ("verify geom --max-n 5 --max-m 5 --format json", "6157e04e0fbb63c462a6815b9a1ae8eb2329d4c901f12f464a0a832bd828721d"),
    ("verify geom --max-n 5 --max-m 5 --format csv", "23f9172c7ba184a423bf842730881195cc344e17938788f3f3ccc09925ea652f"),
    ("verify geom --max-n -1", "74bb452119e8b58a7c192492dc3c2b92ffc18a49bb718019a69c9a51433ce54d"),
    ("verify geom --max-m -1", "4d845e4e1f24c57f01b896ddc2d64b988fabd019105477f21a4dfae44c7e7bfd"),
    ("verify geom --max-n -1 --max-m -1", "74bb452119e8b58a7c192492dc3c2b92ffc18a49bb718019a69c9a51433ce54d"),
    ("verify geom --max-n 1000 --max-m 1000", "409c34ccb6fed397bc183ccea1ce807af1160c867de1a6a49fcb4f95232b3434"),
    ("verify geom --max-n 1000 --max-m 1000 --format json", "39d6c624869b24efc795da07c600db434f4daaa8148bf94608c3c51f60d03465"),
    ("verify anb-eq --a 5 --b 1 --samples 20 --max-n 10", "3a823fdc75476e9ae6f1ccbf3a16f7c88f00c7226f57c7726313aaa2da25657b"),
    ("verify anb-eq --a 5 --b 1 --samples 20 --max-n 10 --format json", "0c06b838d5c3e4f469b1c9e14665bcf0f5ad60dac07cab3fb90fba2df957e3d9"),
    ("verify anb-eq --a 7 --b 3 --samples 5 --max-n 20 --format csv", "bb613e2dc7987ddeec06cbcc1ccaab18c20c691fd7504e43eb8017fa06719ba4"),
    ("verify anb-eq --samples 0 --format json", "98dd0794dae284056eb3e3b6d10685c3e58fe2b4ab26b955f3a29f32126fb744"),
    ("verify anb-eq --samples 3 --max-n 0", "c56ff332b6170bf61883aa2115183befffbc7f9f6f9482331da876dd06d5c2cd"),
    ("verify anb-eq --a 4", "370c835fcb9c08610bd5a7b3f102ccf49554b3ff414501040b48d3341bf622ab"),
    ("verify anb-eq --b 2", "175d0a08f241b18ba0187c195e513d966707eb50b7aed28f7296bc8afce868d1"),
    ("verify anb-eq --samples -1", "d77afcd3765228eb0ba6a24f0b68638abe12d4daf5267fe5c1f2d4682835aaf9"),
    ("verify anb-eq --max-n -1", "74bb452119e8b58a7c192492dc3c2b92ffc18a49bb718019a69c9a51433ce54d"),
    ("verify anb-eq --a 4 --samples -1", "370c835fcb9c08610bd5a7b3f102ccf49554b3ff414501040b48d3341bf622ab"),
    ("verify anb-eq --samples -1 --max-n -1", "d77afcd3765228eb0ba6a24f0b68638abe12d4daf5267fe5c1f2d4682835aaf9"),
    ("verify anb-eq --seed -1", "ff74195cf337d30dbcd6b61b315c2b6ef7e74fe52297b5734a5be0fd9cb14f80"),
    ("verify anb-eq --samples 1000000000000 --max-n 1", "e1ac5c581880d26ec651f6c22557b68da0e670e26c99860cb078c1e7b6280063"),
    ("verify anb-eq --samples 1000000000000 --max-n 1 --format json", "368974a37a1e3da1553633d4f9e944dffe30dd005d158b9e37f3e0a5a1067765"),
    ("verify halfsplit --M 10", "9c0540d701db9c2646056e797e54d0d3a5112ededad203320a9ad3f477d3bcce"),
    ("verify halfsplit --M 10 --format json", "75c650f5bbdf27f726b7bc63dde5b3d60edb55df669803352bb35d932ba9bba2"),
    ("verify halfsplit --M 10 --format csv", "7fb9b0392b49f3ec586ea177085d03ccb922f1633a85dd7489078389ce495373"),
    ("verify halfsplit --M 8 --method classes", "701f9399166f64b22fe7daec7ad7e24d9e25b35a340264c4cb29416dbb8e77b7"),
    ("verify halfsplit --M 8 --method classes --format json", "940caba5804d00bed2ef4571d5476db2e032e5991d7385cd4d9067bc1235f915"),
    ("verify halfsplit --M 8 --method classes --format csv", "f67f9fbd5c6e7006d45aa7023b2fbd2392ece8444b327be97b9fae6dca4ecd12"),
    ("verify halfsplit --M 6 --steps 8", "4d91eae0a956cef9ca5b6e461d228fc8222d98b3d734d55f0f02ad5cd1d9aed3"),
    ("verify halfsplit --M 6 --steps 8 --format json", "bb804cc22f5089ce44fedb1e642ad232b1081cc237ecd9f8e2e8ddac59de13bf"),
    ("verify halfsplit --M 1", "49001b4adc198f04d6208f89e5ce5af8a8f8b451ec02c2ed56c079febbc052f3"),
    ("verify halfsplit --M 1 --method classes --format json", "2af84da256b6a29882a0a407d9d1fcef07d1ee051c9e64816ffbe1fe03a83fb1"),
    ("verify halfsplit --M 0", "8b266d2505de7f918677ec81f4d1d8917d151f0c381ff675f0cffcdd3f172c59"),
    ("verify halfsplit --M 5 --steps -1", "4aa27326f22dcdd1431a4c77803b52c73302c955d982605e1ab62961a52ce1bc"),
    ("verify halfsplit --M 5 --lo 3", "a67fcf7bee5fe4eaea25c40301216c28b9b7d8da0923e76c5fdc5f298e99deb9"),
    ("verify halfsplit --M 5 --hi 3 --M 0", "a67fcf7bee5fe4eaea25c40301216c28b9b7d8da0923e76c5fdc5f298e99deb9"),
    ("verify halfsplit --M 5 --lo 3 --hi 20", "4112d0fe2fc8b091db52f68c737104fa13074519a48156196834a8defe1791b2"),
    ("verify halfsplit --M 5 --lo 3 --hi 20 --format json", "9d421ef4ce720a14a115cbb40881a45021530abc58e4fcdf0383e3d093b8ddf4"),
    ("verify halfsplit --M 5 --lo 3 --hi 20 --format csv", "c6e4c6ccd448397514a675582b3086fbd1cd2f524f92d9481b0cfd981da34bae"),
    ("verify halfsplit --M 5 --lo 0 --hi 3", "a6d380ef0e62e4cac09f28e27835e208b8c59cd26ae3dc310aa95a575754589a"),
    ("verify halfsplit --M 22", "8f9792d51c58ae3888cc533192c069e454411c9a742ff8ac910a8843283aead1"),
    ("verify halfsplit --M 22 --format json", "bbca1c68e93a6890d77ff8c543cfdfa328e130cc717f2781d56569efa37d4b7e"),
    ("verify halfsplit --M 1 --steps 300000 --format csv", "0009fbe8a97e67f805be0c07d7c9b061f10480afcbe155ba9f8099017b243552"),
    ("verify halfsplit --M 21 --steps 40 --format json", "e0d4818552241cf2e56afef460e7bba292af2e30f226bb1918750ea5c62f0046"),
    ("verify halfsplit --M 25 --method classes", "c7d5b4b71eea1245877c0fc0d770ae14bf9c1164eb3d576207b5e977f8291825"),
    ("verify halfsplit --M 25 --method classes --format csv", "53c9da5c9801b45b4e83ad240c49c7b7ed7b4f10815101c9e4e1a619362689a6"),
    ("verify halfsplit --M 26 --method classes", "063c60d735e880082bf8f924d74222650c3e56012c77c5757e3e860f3e726058"),
    ("verify halfsplit --M 29 --method classes", "fb65828cf26333d87d266c9d0216029d83e5031df18ef53a3607e355dc40ce28"),
    ("verify halfsplit --M 50 --method classes --steps 41", "516c93453bcbf31d5e789dda27e651643c8ea48ab4113b791e2d307c8968162c"),
    ("verify halfsplit --M 5 --method classes --steps 5", "11d885a4018b29d0af520799e4e6623fdf644844f8d9e93cc53893201243981c"),
    ("verify halfsplit --M 5 --method classes --steps 5 --format json", "238bb8c31ea2a9c6cc4bde74598651c27eb45b7fc3993b15db4d691d049325fa"),
    ("verify halfsplit --M 5 --method classes --steps 6", "5fb7bc0ca55b03f0763a1ac7fb330a47672c0f26fa21f6f5055d9a46900947ea"),
    ("verify halfsplit --M 5 --method classes --lo 1 --hi 10", "2ea561bf799cbf73225a9d6791b916510afd5a078eb5224213cacd3630c1b5fe"),
    ("verify halfsplit --M 5 --method classes --lo 1 --hi 32", "0f29c99e1c6d2eaaacea6bc1c751238081a7c4c6c95374f0441230806f9f29b3"),
    ("montecarlo --length 100 --samples 14 --seed 7", "86bdc1b7ed89f4052d3132c6bb99b8a7905f983630eaa3006f4275b370bac9e0"),
    ("montecarlo --length 100 --samples 14 --seed 7 --format json", "bd6fcc28579cbe344e92f1b053163cda5526c64509d16b1c391c76dc66bbdf05"),
    ("montecarlo --length 100 --samples 14 --seed 7 --format csv", "0185494321a5002908b2a1c9fe873c63dd039687cb0fe22a47b8a953976dd19e"),
    ("montecarlo --fixture paper14", "ac714d1fbdf41c4357fd82bff533bab92c1897fadfbbe401308996fdd696e904"),
    ("montecarlo --fixture paper14 --format json", "b0ce3ebe388316bc91eadf9df3f4ed12617facbf46fee571b410e770a66e06e8"),
    ("montecarlo --fixture paper14 --format csv", "daace6b1ec945a58de6394eb6d1f7e62e8d261809495b00b982108652f12985e"),
    ("montecarlo --fixture paper14 --length 1 --samples 1 --level 98", "3d74800aa8fc5da747a63a48e969d2cf1776c87eae2340e0bb0a169384487db5"),
    ("montecarlo --level 95 --samples 5", "22598f7e4f38bd1cc2865a90b727d7303c22a21c59166b8a72767bd29683afa9"),
    ("montecarlo --level 99 --samples 5 --format json", "1f3ff803ed98bcf503983133f7b8d4b98134fd9981db5fed05687719ce2ffd14"),
    ("montecarlo --length 3 --samples 10", "97e11ce8b77baa1b1b6e6faa7dd61bc81d9e56d0363911a37bc48506041f76ab"),
    ("montecarlo --length 3 --samples 10 --format json", "412bb659fa6e3180a61f94afe1e1d79014cf062684a98846731ef040bedc060c"),
    ("montecarlo --length 3 --samples 10 --format csv", "cebef625782c6b2626a897b16c18637ac8caf948066ead7da9bee6a91926ba05"),
    ("montecarlo --length 2 --samples 4", "a7aa5aa109d50637bda90731f803556f232e64219732f298cee07deb907c634e"),
    ("montecarlo --seed -1 --format json", "ff74195cf337d30dbcd6b61b315c2b6ef7e74fe52297b5734a5be0fd9cb14f80"),
    ("montecarlo --length 1", "4e1ee98dca91ba838d8d9ae87e6c0e19464db557d62a1af8a02c373a261188c9"),
    ("montecarlo --samples 1", "d9e1ea1b133386f719b2d3dd4eaee60b7b70429ba0b33558e8e25a124620d988"),
    ("montecarlo --length 1 --samples 1", "4e1ee98dca91ba838d8d9ae87e6c0e19464db557d62a1af8a02c373a261188c9"),
    ("montecarlo --length 100000000000 --samples 2", "87d61e3f6e61d50c39a8b00ced4baf1957a8ef053382921226892164e9f4ad7e"),
    ("montecarlo --samples 100000000000", "2aee2ece4228576f3bcec87b70f64905d53bbab5570afc475ae99a010d22929a"),
    ("montecarlo --samples 100000000000 --format json", "2aee2ece4228576f3bcec87b70f64905d53bbab5570afc475ae99a010d22929a"),
    ("montecarlo --length 2 --samples 1000000 --format csv", "6f8075b3c3d6761792716fece8ac74004656d622b834181d3608f072d3dacc53"),
    ("sweep", "34a69136ad108d4e5e5b86e9d05e417649933e989067932d5fe716af8422b429"),
    ("sweep --limit 1000", "fcd113b60473c82ad382ac51f9339ee83c8fcb30e9e881f3311b586222576ffc"),
    ("sweep --limit 1000 --format json", "fa0f3f3fc3bd50c581941b8bf5779f50e42415077d7e3322d9cca2fc4179c363"),
    ("sweep --limit 1000 --format csv", "d250701c1d82d1341cb583f958bd1d7e5f9faa1496725875414a44a78928b1c1"),
    ("sweep --limit 1000 --max-steps 10", "94fc50a38ec23b0d270eb8ba6e9b232861a8db0cfe00ba01839ba603f4868baa"),
    ("sweep --limit 1000 --max-steps 10 --format json", "ec55fd4f75f0659ebd4e3c1b32bb4a4af792891df49fea0f6654a9bbf88c895f"),
    ("sweep --limit 1000 --max-steps 10 --format csv", "869163d9c8a035662edf7b45e37d8ede819abba7da989716ef8a0bba26c0f5b9"),
    ("sweep --limit 1", "97b071fa18b8a9617ccb0293cf0bd07cb45e5aff69a1dc4f165efa7c77078d6c"),
    ("sweep --limit 10 --max-steps -1 --format json", "7b128adf678bd9b21f73fbaf3aa1d93b5605f766a34a743c99714eb85801539b"),
    ("sweep --limit 10 --max-steps 0", "9d39f3ed91d0229112485df5527c6a9ac56ef94a2b4e4571979526adb7466e26"),
    ("sweep --limit 5000 --threads 2 --format json", "ccce70a30e509b0d8da2c0b65f906ade49abb086cc81d658f57b266306f01372"),
    ("sweep --limit 0", "9a805285543005c0dcaa6b4f6c09ce8f206a3924062081266b4072a9eec342d3"),
    ("sweep --limit 10 --threads 0", "76e86a563df3cc644ab66d6b40187ef4abb0d707ec216ffa428d803600d21e6a"),
    ("sweep --limit 10 --threads 257", "aae6becf805d325d08afc167afb3fc6125af8955e7a2f98f3bae17de2e037ee7"),
    ("sweep --limit 0 --threads 0", "9a805285543005c0dcaa6b4f6c09ce8f206a3924062081266b4072a9eec342d3"),
    ("sweep --limit 1000000001", "892686962321eef028d115fae04f219d99176ae3a0dcce5c5f3b75fc1b3490ff"),
    ("sweep --limit 1000000001 --format json", "892686962321eef028d115fae04f219d99176ae3a0dcce5c5f3b75fc1b3490ff"),
    ("sweep --limit 100000 --max-steps 65534", "f9f4560549c8446e56726d0a148cbe61d2ffc6273443d17e517a5f851555a98a"),
    ("sweep --limit 100000 --max-steps 65534 --format json", "d68c6d1cdaf122e11fb9b8e2e7b8aed3792182b8621e862d3a80fbc8416ba74b"),
    ("sweep --limit 100000 --max-steps 65535", "d38f1fade0d9c5c0c7f9e22cd4c688c9aa9b2adf4df554f6e8cf416d5db4e444"),
    ("sweep --limit 100000 --max-steps 65535 --format json", "a78d581e16638d11a2f64ac18b9a4196f881a738aad399c4ef7bc7fa7b26d361"),
    ("sweep --limit 100000 --max-steps 65536", "930713676adc5e9996bf6cd8775545744324641e57a191573ad7e63bc71cdf0f"),
    ("sweep --limit 100000 --max-steps 65536 --format json", "03c4ac4a14f0a36b0b66f488460c5507e12363adce89637807ec796f739df142"),
    ("anb-cycles", "e00e12bd78486c7b6dbccc24c9604e6b9a8a4dac2dd472a55671d0a604e90854"),
    ("anb-cycles --format json", "86780c48c15c764df1595e2872883bb99b9074f34e78a14bd0425605b8116404"),
    ("anb-cycles --format csv", "41c72a535b20aaf3d6c898bb8d79cef3b597dd0dad840d4642b934d311fa00cd"),
    ("anb-cycles --a 3 --b 1 --limit 50", "9ca881d36e0f7932fbff53f8cda8ca29573895eb33562d7ac8e06984c0ddcd1f"),
    ("anb-cycles --a 7 --b 3 --limit 40 --format csv", "b2b9d74645a960ec872f4566241cac51eaef4268651ffcb2561efcc3c6de812d"),
    ("anb-cycles --limit 100 --max-steps 0", "30cee7e9db2bdc2d1e01cf578eccc207ed1cb983deea308085c88eb748a3250f"),
    ("anb-cycles --limit 100 --max-steps 0 --format json", "ed7029a3400eebdc05e592ba5c7770d22209a7283027d8ac005733d10d0ef948"),
    ("anb-cycles --a 4", "370c835fcb9c08610bd5a7b3f102ccf49554b3ff414501040b48d3341bf622ab"),
    ("anb-cycles --b 2", "175d0a08f241b18ba0187c195e513d966707eb50b7aed28f7296bc8afce868d1"),
    ("anb-cycles --limit 0", "9a805285543005c0dcaa6b4f6c09ce8f206a3924062081266b4072a9eec342d3"),
    ("anb-cycles --max-steps -1", "7b128adf678bd9b21f73fbaf3aa1d93b5605f766a34a743c99714eb85801539b"),
    ("anb-cycles --a 4 --limit 0", "370c835fcb9c08610bd5a7b3f102ccf49554b3ff414501040b48d3341bf622ab"),
    ("anb-cycles --limit 0 --max-steps -1", "9a805285543005c0dcaa6b4f6c09ce8f206a3924062081266b4072a9eec342d3"),
    ("anb-cycles --limit 100000000", "ac276e56dbe3f928559cf92e4627a14cb8239f786dba62b1fc144d9d17e9c526"),
    ("anb-cycles --limit 100000000 --format json", "ac276e56dbe3f928559cf92e4627a14cb8239f786dba62b1fc144d9d17e9c526"),
    ("anb-cycles --a 7 --b 1 --limit 7 --max-steps 50000", "03f1ccd2a43495cfd0bca84b18b5863eab61ff80f81a851b6638a32b112bcd7e"),
    ("anb-cycles --limit 3 --max-steps 8000000 --format json", "f40e224e5ff978318d35bd13368dd889355259b5478a8988565c393f632e0b36"),
    ("anb-cycles --a 5 --b 1 --limit 100 --max-steps 100000 --format json", "cc2ef1130e084c35810171d9689289f01d47bb7817cde499e3bbb4077b39c986"),
    ("trajectory 27 --output {out}", "3141d45fd28552ecac78354d1286c53f4823c8fd014a31216f310b91e46d6cef"),
    ("trajectory 27 --format json --output {out}", "1fa99a1dfe1ccbc88772afd66a6b92a6b3bacff7485a579c3c8d340d3bb69f23"),
    ("trajectory 0 --output {out}", "fdbffefb071fa904b1ee5dea752c4c0550e1a396ee416e7d004927c0c1066b3b"),
    ("trajectory 27 --output {missing}", "0ed7f4e0d0d31640e4daa2c0084200fed55b1f97b77e15d5e1e629d2d75bc13f"),
    ("trajectory 27 --output {dir}", "d1e65ff5592d4cf93e7e03849fb858746c7e00e6c9d19957fafded26738096d2"),
    ("verify eq2 --max-x0 99 --format json --output {out}", "dbb08632c5f8e9fc84d867e0c77e197d8c4a31a598a120f1c187a28ecf17c286"),
    ("verify eq2 --max-x0 2097153 --output {out}", "7974429c9d99313e48bf88d728de9341adc4119b3ce621e45d47e85318f05b99"),
    ("verify geom --max-n -1 --output {out}", "74bb452119e8b58a7c192492dc3c2b92ffc18a49bb718019a69c9a51433ce54d"),
    ("verify lemma7 --max-k 6 --output {missing}", "0ed7f4e0d0d31640e4daa2c0084200fed55b1f97b77e15d5e1e629d2d75bc13f"),
    ("montecarlo --fixture paper14 --format csv --output {out}", "073ea94ede91f6c35e9c46c4e0fc29d062f7c93db7b79c1343dac98e65b2daab"),
    ("sweep --limit 100 --format json --output {out}", "ce49b6125b2dc3b46bddb4f057bd0e5e649a0c03467f6ccb35a6749f62b628ea"),
    ("sweep --limit 100 --output {dir}", "d1e65ff5592d4cf93e7e03849fb858746c7e00e6c9d19957fafded26738096d2"),
    ("anb-cycles --format json --output {out}", "cf958d2e512ba255ee30176376507c7d0da014eb861f7b49906657dcc9849db5"),
    ("anb-cycles --a 4 --output {missing}", "370c835fcb9c08610bd5a7b3f102ccf49554b3ff414501040b48d3341bf622ab"),
]

PATCHED = [
    ("cli.TRAJECTORY_OUTPUT_LIMIT=2000", "trajectory 27", "f81109e12068a3dc470e166395b27e4f04ce698c6491b9a7d6c703c266842b11"),
    ("cli.TRAJECTORY_OUTPUT_LIMIT=2000", "trajectory 27 --format json", "fffe469b5ff66e46156a55f3f1b77cfdddf2108296a4fdcee91f9d0576cc5d5d"),
    ("cli.TRAJECTORY_OUTPUT_LIMIT=2000", "trajectory 27 --format csv", "275e9dea47d41ab30a9db290c3438bb6ac64c2473d253aa0f2ebb1abe66bf791"),
    ("cli.TRAJECTORY_OUTPUT_LIMIT=3000", "trajectory 13 --map anb --format json", "c40d78bdf06edcc96edb68983ea2e78b8d3c4353fe92ad05a4997f6517163402"),
    ("cli.TRAJECTORY_OUTPUT_LIMIT=2000", "trajectory 27 --output {out}", "3141d45fd28552ecac78354d1286c53f4823c8fd014a31216f310b91e46d6cef"),
    ("cli.X0_START_LIMIT=50", "verify eq2 --max-x0 99", "e8d3ed5d169ff6730c087fb42d250968756c68550bb45a5ef0619d836169a085"),
    ("cli.X0_START_LIMIT=50", "verify eq2 --max-x0 101", "c83364e2e6d0c2e3af86d52b4e0df8f3c22bf5970b478e11f82c8e0b8007becb"),
    ("cli.X0_START_LIMIT=50", "verify bohm --max-x0 100 --format csv", "3fb46d97305b66240412782b1b855ad31c99e6930f7c519895f761742d8bd1bf"),
    ("cli.X0_START_LIMIT=50", "verify bohm --max-x0 101 --format json", "8629d49b2ac05501319fc865b13324d25dae2f667d7edc27151d3651a6e064c7"),
    ("cli.LEMMA7_CHECK_LIMIT=28", "verify lemma7 --max-k 3 --samples 2", "b3dddc68eba35b28752a5460dcc04daea17556cb6714f4b4d7886d180e37d861"),
    ("cli.LEMMA7_CHECK_LIMIT=27", "verify lemma7 --max-k 3 --samples 2 --format json", "1daca1c22c8af454dc2a9f51ed1e648c19d111e350aa491d9e871d2fb0ba154e"),
    ("identities.SHIFT_UINT64_MAX_K=3", "verify lemma7 --max-k 4 --samples 2", "7279be31f12d8e22ab2cf7116cfa4cd3acf769046e93c4e52a04bbd9056e0943"),
    ("identities.SHIFT_UINT64_MAX_K=3", "verify lemma7 --max-k 4 --samples 2 --format json", "a622ebcff02151541f70e20c531996bddb62d16d419b23f8d88a7cd1239298aa"),
    ("cli.GEOM_TERM_LIMIT=63", "verify geom --max-n 2 --max-m 5", "fd1a503093ed396fbb68f30abecf13f59374abe2cebbc8251d0073425401da26"),
    ("cli.GEOM_TERM_LIMIT=62", "verify geom --max-n 2 --max-m 5 --format json", "3a2f4924c4cf0e2ddfdfb5493a8c2694c475f506c949e1535098251b80106ecd"),
    ("cli.CYCLES_STEP_LIMIT=500000", "anb-cycles --limit 100", "e00e12bd78486c7b6dbccc24c9604e6b9a8a4dac2dd472a55671d0a604e90854"),
    ("cli.CYCLES_STEP_LIMIT=500000", "anb-cycles --limit 101", "2cea57c705aaad59c00c6b2932f8e1a49dcc66a55c72e179f4cfb71dce31e966"),
    ("cli.CYCLES_STEP_LIMIT=50", "anb-cycles --limit 101 --max-steps 0 --format json", "37e172d1d55c57829a4d1fff07dd252d5df9985c527a60137f4267f062e11d43"),
    ("halfsplit.DIRECT_ELEMENT_LIMIT=63", "verify halfsplit --M 6 --format json", "453921d500bca102a833600eead3b4bd94bbd79689282ab4ef0e912cb41a4fb7"),
    ("halfsplit.DIRECT_ELEMENT_LIMIT=63", "verify halfsplit --M 6 --lo 2 --hi 64", "537fd37e30aec8803264c7bfd6497605064e665f981d37bbbac9769ffa62199c"),
    ("halfsplit.CLASSES_STEP_LIMIT=30", "verify halfsplit --M 6 --method classes", "54a1ada6c5d6f413cd86f72d2a98809560cc1eedef086090726b2a96a112f566"),
    ("halfsplit.CLASSES_STEP_LIMIT=29", "verify halfsplit --M 6 --method classes --format json", "9b8f85002e0c6f7b9e15bca8331512cf35f6c81b201f315a69819fcbc7794931"),
    ("halfsplit.DIRECT_STEP_LIMIT=8", "verify halfsplit --M 6 --steps 8", "4d91eae0a956cef9ca5b6e461d228fc8222d98b3d734d55f0f02ad5cd1d9aed3"),
    ("halfsplit.DIRECT_STEP_LIMIT=7", "verify halfsplit --M 6 --steps 8 --format json", "8c62364fbafe31cf542c8d21ab0becded651ca48af20870aeb371589c7c8a69b"),
    ("halfsplit.DIRECT_ELEMENT_STEP_LIMIT=320", "verify halfsplit --M 6 --format json", "a0cedaca4177911ade0d17b1a28a0e615c9f74d7c8591954ffb26b995c3dc719"),
    ("halfsplit.DIRECT_ELEMENT_STEP_LIMIT=319", "verify halfsplit --M 6 --format json", "111a118df2c2a43ab35f7017723960b33da9e490ebdaeb097d586701b4964840"),
    ("cli.CYCLES_MEMORY_LIMIT=11404798", "anb-cycles --limit 100", "e00e12bd78486c7b6dbccc24c9604e6b9a8a4dac2dd472a55671d0a604e90854"),
    ("cli.CYCLES_MEMORY_LIMIT=11404797", "anb-cycles --limit 100 --format json", "de6e6535fa0b02a99167c06df125610f939cf61e238df70f7118e101f743a2ed"),
    ("cli.MC_LENGTH_LIMIT=100", "montecarlo --length 100 --samples 14 --seed 7", "86bdc1b7ed89f4052d3132c6bb99b8a7905f983630eaa3006f4275b370bac9e0"),
    ("cli.MC_LENGTH_LIMIT=99", "montecarlo --length 100 --samples 14 --seed 7", "d774a83393f107cf0197888e6ebf24eb30e621fe7b9a7b4c65d33b503c946adb"),
    ("cli.MC_COIN_LIMIT=1400", "montecarlo --length 100 --samples 14 --seed 7 --format json", "bd6fcc28579cbe344e92f1b053163cda5526c64509d16b1c391c76dc66bbdf05"),
    ("cli.MC_COIN_LIMIT=1399", "montecarlo --length 100 --samples 14 --seed 7 --format json", "1d6a39eb361dd111d325cb9f38b8fdacabb3995e7cfff77f3373c98b391d315b"),
    ("cli.MC_SAMPLE_LIMIT=14", "montecarlo --length 100 --samples 14 --seed 7 --format csv", "0185494321a5002908b2a1c9fe873c63dd039687cb0fe22a47b8a953976dd19e"),
    ("cli.MC_SAMPLE_LIMIT=13", "montecarlo --length 100 --samples 14 --seed 7 --format csv", "3d787317a3a4c04ddd55de6e1d815a606edb51dd4359d6bce34fa17dfdf6a29c"),
    ("cli.SWEEP_START_LIMIT=1000", "sweep --limit 1000", "fcd113b60473c82ad382ac51f9339ee83c8fcb30e9e881f3311b586222576ffc"),
    ("cli.SWEEP_START_LIMIT=999", "sweep --limit 1000", "514cc796ed22836fd9106f3e5656fb9e8c0ff2dbb2168c5b9b6096bd5a1b3c32"),
    ("cli.SWEEP_FAILURE_LIMIT=957", "sweep --limit 1000 --max-steps 10 --format json", "ec55fd4f75f0659ebd4e3c1b32bb4a4af792891df49fea0f6654a9bbf88c895f"),
    ("cli.SWEEP_FAILURE_LIMIT=956", "sweep --limit 1000 --max-steps 10 --format json", "2c52a490032b69d862a17ebc14476f878bb683407b059fd03fba2e79b8db7872"),
]


def contract_digest(argv: str, tmp_path, capsys) -> str:
    out = tmp_path / "out.txt"
    out.write_text("old\n")
    paths = {"{out}": out, "{dir}": tmp_path, "{missing}": tmp_path / "missing" / "x"}
    code = cli_mod.main([str(paths.get(a, a)) for a in shlex.split(argv)])
    captured = capsys.readouterr()
    err = captured.err.replace(str(tmp_path), "{tmp}")
    payload = json.dumps([code, captured.out, err, out.read_text()])
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("argv,digest", CORPUS, ids=[a or "(no arguments)" for a, _ in CORPUS])
def test_argv_bytes(argv, digest, tmp_path, capsys):
    assert contract_digest(argv, tmp_path, capsys) == digest


@pytest.mark.parametrize("patch,argv,digest", PATCHED, ids=[f"{p} {a}" for p, a, _ in PATCHED])
def test_budget_edge_bytes(patch, argv, digest, tmp_path, capsys, monkeypatch):
    name, value = patch.split("=")
    module, attr = name.split(".")
    monkeypatch.setattr(MODULES[module], attr, int(value))
    assert contract_digest(argv, tmp_path, capsys) == digest


def _run_capped(argv: str, limit: int) -> subprocess.CompletedProcess:
    """Run `python -m collatzlab` on argv in a child process whose address space
    is capped at `limit` bytes, with this checkout's src first on the path."""

    def cap():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "collatzlab", *shlex.split(argv)],
                          capture_output=True, text=True, env=env, preexec_fn=cap, timeout=120)


def test_classes_within_address_limit():
    """The class tally at M = 25 in a child process whose address space is capped
    at 64 MB: it holds one block a level of the walk, and gives the bytes that
    CORPUS pins.  The argv writes no --output file, so that slot reads "old\n"."""
    argv = "verify halfsplit --M 25 --method classes"
    proc = _run_capped(argv, 64 << 20)
    payload = json.dumps([proc.returncode, proc.stdout, proc.stderr, "old\n"])
    assert hashlib.sha256(payload.encode()).hexdigest() == dict(CORPUS)[argv], proc.stderr


OUT_OF_MEMORY = "resource limit: out of memory; lower the command's size\n"


def test_out_of_memory_in_a_capped_child():
    """2^17 montecarlo samples pass the sample budget but not a 40 MB address
    space: the MemoryError ends the run with exit 3 and one line, not a traceback."""
    proc = _run_capped("montecarlo --length 2 --samples 131072 --format json", 40 << 20)
    assert (proc.returncode, proc.stderr) == (3, OUT_OF_MEMORY)


def test_out_of_memory_in_process(monkeypatch, capsys):
    def runner(args, out):
        out.write("partial\n")
        raise MemoryError

    monkeypatch.setattr(cli_mod, "_runner", lambda command: runner)
    assert cli_mod.main(["trajectory", "27"]) == cli_mod.EX_RESOURCE
    assert capsys.readouterr() == ("partial\n", OUT_OF_MEMORY)
