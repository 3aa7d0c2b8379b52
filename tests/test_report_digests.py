"""Pinned digests of check reports, so a change of representation inside
the checker cannot change what a report says.

Each report's contract fields (``CheckReport.to_json_dict()`` without
``elapsed_ms``, plus ``kind``, ``expected``, ``total_hits`` and
``holds``) are hashed with sha256 over their ``json.dumps`` text.  Every
catalog id, every ``<id>-pair`` and ``rc-identity`` is pinned in two
spaces: the 2-atom exhaustive space under the default operators, and a
3-atom sampled space (seed 5, sets of up to 3 members, 60 draws) under
lex/lex/restrained/round-robin.  Fields appended to the report later are
not hashed, so they leave the pins alone.
"""

import hashlib
import json

import pytest

from revforge import CATALOG, CheckContext, InstanceSpace, OperatorConfig, check
from revforge.postulates.catalog import PAIR_CHECKS

SPACES = (
    InstanceSpace(atoms=2),
    InstanceSpace(atoms=3, mode="sampled", sample_count=60, seed=5, max_set_size=3,
                  operators=OperatorConfig(revision="lex", base="lex", finisher="restrained",
                                           strategy="round-robin")),
)

# id -> (2-atom exhaustive digest, 3-atom sampled digest)
DIGESTS = {
    "K1": ("2af15753b0e0da97e11055927962aea23b19767802e63848790d90a7ed722f00",
           "f97e52048435e05c0859060e49be62d1e4bac115a1221988eeea87c0504a71e9"),
    "K2": ("848a0bcc38c39816a83f53a694f14e62a1533edd270a7a1d5a9c358fb591fcc8",
           "45e8341ed4b0d6008b04c2d434a28884ef0068b3b6190c401689f3086e231846"),
    "K3": ("e79c46ca0a70cfe107f7e1bbf57faafd4013c7d3c40c11ea4cfb724e8a8237f3",
           "038767af45c67369b01024eb74cae0e78e0c73eb36a3ab63a7f1e36d09134f80"),
    "K4": ("9b6070bc3ef55981225f3c865d1e65f5a409e3de5eaf0e2c70d3ec29f197bc39",
           "4caf8658983a4f710dbefc1c97eb424dd5a602e44d175ea3e8ab594ba84c704d"),
    "K5": ("b74ca021d61c4786171ae737b01f759a768ff79032a9da65893ba8c7fed2912e",
           "3eda4bd239d0320fbb9901cc9ff0b8994abdb046aa34c78467450e12fbb96e04"),
    "K6": ("55bb7215ebd3c0efeaa03f13e17feb1236449e97dae85a55dec441c577d4556c",
           "75727abe3ce82931cd7a63276cee6127b74260921c0f873495ff7121d7d1023d"),
    "K7": ("1ab1b598d2d570ebe5e3e8c17b65d4d68af92f7c1faf1f740096d7198269bbfe",
           "fd332a441db54c6cae650d12bfa67a139f82a4e9f37731fc2c86fa3b28576ff5"),
    "K8": ("6c8cbd66354593962623f3915608092759555fa374193c98613fc461a2dd8533",
           "b8c2eb12edf3093cb621a13959565ce7d10c8294062009a4c4df4074ef143ea4"),
    "CR1": ("919f2ca4ee8b6cb48c47f14de041c57373bc87b4f8f48364e83669265be24222",
            "181936af96197774971c32b70b8f93140db269e55b102efc7ee5e97999cb6309"),
    "CR2": ("d795d38995b40830dfc47da46b71a2f722d21a5177c25f672436be2e0741c2e9",
            "7423016c215e9101359e3102cd0db11b06eebd14f76632e35710ddbce76c848c"),
    "CR3": ("08bff4a1d85dd4854aec8b4a3ab464f18718dd9c8d9f987e7bf830922d24450a",
            "f9dc5f847ca008ea4dc5f99103843cf014d81e2177c0f020bcefb6589fd82f58"),
    "CR4": ("c6bc30030c4f23ae4eecaae164890acc1b8158e28122a68e643b309f56f1273d",
            "8fd450b6ae2c15bd05dc45bf363aafa8ac23b35c4ddf2d89933c2ff48a3ed03d"),
    "Ind": ("9c3a4d5ec89389d0c7fafb56192c65086ce3dade9f18e3cc12b5a9166f1245a6",
            "d0e8a909b1664d73192f88e2b721895b5538324c3164fd24aa9c76979dd25d02"),
    "LI-serial": ("4a001b2723bb4a2eba8eed3e93658170af821b444a45a3ab9871ddc6f6b23cd7",
                  "60a572c88dc7263480fe17807747fb6ef24a02a046f19cb43176a1cbdcc12dd6"),
    "HI-serial": ("347c61b4c748a925cf3d1e30e86ee044b0f12474091e7dc300120f7cc1bfe19e",
                  "48fe05e84c2ea21ccae0f4ee223e21850e0e09af638222d960528b43df6dae12"),
    "CC1": ("2a544fc2918e15988bb54e579367e8ed6c39abcd2b1d6ecb0c6356d3f01995e7",
            "45ef1c6a0e72543c292597a5e84fb5d595d6d62b11aed95fc2f56171d0d1f380"),
    "CC2": ("0e76aee041eafbde5b79802808d7c43785f6d9a1864c88500f799dfebad0db35",
            "12635b49dbdd6d1f6f284620d9c3e7ca840474979f22f6a7e7bfb476a902231b"),
    "CC3": ("0393f21198bdb6aad0f37f723eb1c97ade18a750e444fe1c967abcd787cec37d",
            "cb33aa36c34ee4eff3462bed6ea9d7aa4120a326ead0ff7046a2be66fdca4294"),
    "CC4": ("d9a8d4d18bc42e2fad03a9151abd5f99d24c9b28356b1896cfaaffa4df13e9a3",
            "619181309616d0d9c0bede5541ca8bd583021099d08cdf0381329341bfef9b2c"),
    "Conj-star": ("13ea43ff4c95affa4c66c97a86e20ab5951ac39af099fd9df71a5f92a9da8381",
                  "09af6097805d4c5f9136aa401fe6a3cfcd3bc1342bab6a7ba9745d4cb053d475"),
    "K-star-1": ("24871d9aa0bf5a8ac75a73b9b7def5585bae0c2eaaf94197a19e2bb75c5cbc4c",
                 "b8d7d526f35241f016c48e5f950c66a642667194866ed5a44a0da8e2d90a2a9a"),
    "K-star-2": ("807ab56d443e6c44890b85315068ec2efca681b5208e7903ec881dd900bf310b",
                 "335faa91b5df07396e173ee72306a38a6b2c4c53872687ae1ebfd2e4232eb9b8"),
    "K-star-3": ("9850e0ea2ae59d41583751dd3b8006920394b5844b954ee3742b00013cbc6416",
                 "3b99305654c09b477e527570d2345c2cd4003636d14e63eee8a05ce74fde7e57"),
    "K-star-4": ("028c01325f0fee48266ca28981a2836973f376fcc73aeaf1b381027fa69bbbf5",
                 "8208f657b7e4f80507e91ff089bdf94812f74be8d92b9b57b61311e80af09fe1"),
    "K-star-5": ("fbf6289d0a8167a6e0ce8b15266b3a35c0b88f1091d75823f1a1e0177ec57a4d",
                 "ef86001e4a5425b1b30538a902f4fe5cedebacf9947938db39fec8d786651a3b"),
    "K-star-6": ("589545da66a5ab3977b4fd1a134ea8ba95452c6c5cb4ffda320ebea44167aed2",
                 "cd0e7cbd9344cfc47f98572fa12eb562b7d4ead5ba98bc1fdb8cee7abca18e00"),
    "K-star-6-minus": ("481134cc7bf6e1dd3d3684bc406e2a9b9ee48eb863463af7b9d354e589dabffd",
                       "de1881adc5d9482ab0431dd9fb944afbea6205de73bbbd26e2ab9e79f15580b8"),
    "K-star-7": ("aef876e5be33ce36bf1927e2f3bedbfc6fa466ff217da269da3269bba9a1bda2",
                 "72050ffc6c30adc6229002406b82cf7e544905060d8e3264a2d44915bf607efa"),
    "K-star-8": ("0f8f1f565a04a71b25b4360831d701f00cd0fc3a396385c4fd8b51bced5e5d6c",
                 "9f89f575d2196dd942e272f43904add22ae1e00a708b65b39fe97400e28502bf"),
    "C-star-1": ("c0cca591c669ec6e57a92319198807cd5066eca3a724d189d0b89968664847cd",
                 "b3230ef759918e31ede6bb9c214154c100910e2d7eac8c50f3865589457c04f6"),
    "C-star-2": ("7cb072bb9fa6ef8be660b2e924266889d007c356d95caad6b29e8e0bff2bffed",
                 "a040e005300f46a16d455450198652c0efe57d74571a70cc40a0483f26d493a4"),
    "C-star-2-plus": ("ebdaf9bceed428dd976d1cb498d4017267a158682c4418f65d975044145f73dc",
                      "9fe385197b1388e33223757c5f10d88a90a9e62a00e3d1c203ac5518483a93b8"),
    "C-star-3": ("5316452dd988e460be73a7a3e73fd73692a0f4994d4b175a24315cb550ee1444",
                 "31283bed3738cb187e65d65c4bb61051cd1c8e83813fa39b96467db5b5b797d4"),
    "C-star-4": ("9abd92a4bc5c4be0c95c25541ca875b2642bcccf56200fe96309c4b511410b56",
                 "28370e66ab0f19e864d4043e4fba36531a6511068435e401d178dc0d7d18a64e"),
    "PC3": ("4a0d7e2690b543c5d9b24ffddb642bba84fc5e0b7fac79fb67da7c353ade09df",
            "c4849b9a3d9fa2b493318c6601031a6e9b319fff7b0c98e29b909b1528eabdcf"),
    "PC4": ("ddde65458eaaa08ee33d4d0ad396664e037cc93646eddb4bea200c5e29c7bbd5",
            "57fab78e3eca55b1453b7b9aeb510e386eadced6513901bab9290dae0afcfc45"),
    "Ind-star": ("c4c702073c12a52dd7f54f99d1f53239d894ddb3ae71fdb5f717f5e620d16798",
                 "b175aa3b30c9344310607d64a8e4c774d3c1fdd5c0160e9527c248380fe73ecb"),
    "GR-star": ("2e42767b2893188ef42716a25192bf79205c21a69c24b8c011ac2fd53380280c",
                "9aa866890704bf3a43b4dd7b415cdcba03037700a7ec1ff456faf94c8c3060b1"),
    "LI-star": ("90cd8f668b1564ff55d4254fc13ccb2d6ac994e6d769ff2e128db0ecb8ec5d69",
                "965f02692f956e92e846d35a7510371784ada26c35966894bf484e760e4bb302"),
    "S-star": ("ff53b2240c5a2d6cc03236804b2e4ee902be5cbd58dd784c550bbc39ce408016",
               "c70dc91ffb00af8775e85b3d81c62d3a1ca55b0e3db090f2ab0ab831ad04d5ad"),
    "P-star": ("e364e13df6733e89b48602e2a7d2299703263e64178d7409c17042faf12d7f7d",
               "047fb4bef04e2865e05e6edbb77e220b8dc40b4f5f0ebede1bdd7a81440c9ed4"),
    "C-con-1": ("c18eeb351bcc1e1a7863385623d905a075d6bcd30a8fcfc0c461565321ece2b4",
                "6d69bd028ba05fff9d2a3a590a22021031d2af2b981458e30b13f263a7e2fdf5"),
    "C-con-2": ("7fd7a05803bae18356a1e661c58c32a4845286adb4a5fe7b0b3214bdc9bb6509",
                "ae0a0aa6d87806a04bb8d20769f40f4bbcaff7c13d115d960213986431154300"),
    "C-con-3": ("86f3e514c373ae3b80b238a1fc14543034cb7f4a18d27bc0e88300292c772064",
                "568256b480c397327f104e8a5fd538b3f77c243c6ee61fe27b4946d5000affc2"),
    "C-con-4": ("747972f71772bb01d1bff2f0f1157b21759ac8fa171dc8988e0510ef5ddce18d",
                "0e4ed6a8da83b9351511063d2810fc00e3955012b5c7e4767a4b9a32482b9989"),
    "DiP": ("751ebe427fcaabf07c6e8df3fa6d7c42f7f4afaf52ad28242d18cf82defaee71",
            "1563ab7f0fe14166457ae463efdc3970e36f927206bfac6ea91b56aa04c8d913"),
    "HI-star": ("600c2780b1f8b8dcd5a57f17d0b6ea829c1ae4d821b4565b0e94d4c792f30af9",
                "a31d301d8cff4865d314231798d7a004c6444ca4b478ca7bd50f5089eb3013fc"),
    "UB": ("d7541d8d91f8eefd2460c8b1e1d5dfacb44b0bc46707e3b0c608e0450763cd26",
           "7d0195347ade352a58d45c24a5a4708cba8d4aa7323c939390fcbbae02935973"),
    "LB": ("ed271c713f8aa32ea0e8dfa04087baa1ec27fc0d54b82cb3a6714ea574be6149",
           "0acdac30c0c171961a73ac03f207dc8ea9f761766d5ef53c9e1b04aad43f43cd"),
    "SPU": ("f5a8ea6c9e974b9ef912dfc8fe1a279d5b0c279d90039cc63cd520bf77b31f77",
            "0781aba8def9805e6ee819ba2a44c474eaffaa8e14c762ee5c8a62a4a9966634"),
    "WPU": ("8a0aa89ccb4173fea57e5ad38c29ab4d43c0ca7dacc14c3effca8ff028e492f1",
            "b576b1ecd3310ae09e0191bbac455386793efb085c6c6f340cd57752ec137146"),
    "Factoring": ("db852bbd83fb0612606cafd5492a942794c7601d98b812138f6124ad27018e4c",
                  "44b71bcd553126cd211b4411e147ff4fb7287044e40d48717511faa712a05686"),
    "Parity": ("5f06e842859c01a28d1be2174758636b1556e80a2b3e2b7deb57a905a31206fd",
               "890fbb0197c688bc71bc5296c8d35a950dc7977e53cab848839bd27cdf3b5c1c"),
    "C-star-1-pair": ("192c5ca22095b178868101ef2df3c75d31852f4591856831d0a863da920057f9",
                      "0c1e309a2f16641ee217e90351441d9e674d60d6c42c7ee6af107904d289bec2"),
    "C-star-2-pair": ("18cb02fc29986ad16d8c42ba15fd78ff7f267e6b36ec0ee6313dd3c71f1ba653",
                      "a98789b1fcd13a68e359b6569f96c7f78858ab7eab40d4feef4d99108e326d82"),
    "C-star-3-pair": ("4cf563a6bb0b8db9a3c83559f1737efe32ff0fadd0b438567353c9f0f6457bd6",
                      "8823d8774b38e91e2f91be1dab50d82b4e42bc76392deb4d4ab7045880b20fe5"),
    "C-star-4-pair": ("6d312b4850ef776cfabc2441e8133e8f00cc3cbd912c55251705e92f0813cc2e",
                      "c989e83a742974bb4b6ec6b5810942059419ca98c34ca873c5faeadf18f5de29"),
    "PC3-pair": ("c296205010352900a8fc2a19a68e428c6c831f205e31395ff594e243e9fa5561",
                 "e072ad5f3d9972b2246f9ab51e5a89f80c426f80699f25c87cc34701aa3ad605"),
    "PC4-pair": ("62e274cf6b67eb9224398cac3772ec47ea6883c31c60d1d685a7867a35d4e914",
                 "27a91cbda28a644c5830e886b6fadf09c30e0424eae5d46714ad4fd241fb9dae"),
    "rc-identity": ("10ecb05da9276400d59b429e0a58807902172c25b506ba407b7815b1130cc74d",
                    "5caa06868197a2d91db45cea89791f441abcf12bfe844dc5b56e58444ae0b714"),
}


def report_digest(report) -> str:
    fields = report.to_json_dict()
    del fields["elapsed_ms"]
    fields.update(kind=report.kind, expected=report.expected, total_hits=report.total_hits,
                  holds=report.holds)
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()


def test_every_check_is_pinned():
    assert set(DIGESTS) == set(CATALOG) | set(PAIR_CHECKS) | {"rc-identity"}
    assert len(DIGESTS) == 60


@pytest.mark.parametrize("index", range(len(SPACES)), ids=["exhaustive-2atom", "sampled-3atom"])
def test_report_digests_are_pinned(index):
    space = SPACES[index]
    ctx = CheckContext.from_space(space)
    changed = [pid for pid, pins in DIGESTS.items()
               if report_digest(check(pid, space, ctx=ctx)) != pins[index]]
    assert changed == []
